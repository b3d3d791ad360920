package main

import "testing"

func TestGate(t *testing.T) {
	study := outcome{Collected: 100, FlaggedP1: 2, FlaggedP2: 3, Unique: 4, ExactDups: 1, DoxDigest: "d"}
	service := study
	service.RunDigest = "r"
	pins := pinTable{
		"study":   {"7": study},
		"service": {"7": service},
	}

	g := &gate{workload: "service", seed: 7, pins: pins}
	if err := g.check(service); err != nil {
		t.Fatalf("pinned outcome refused: %v", err)
	}
	drift := service
	drift.RunDigest = "other"
	if err := g.check(drift); err == nil {
		t.Error("a repetition that differs from the first was accepted")
	}

	// A stream run that disagrees with the batch pin fails even when its
	// own pin is missing.
	g = &gate{workload: "service", seed: 7, pins: pinTable{"study": {"7": study}}}
	bad := service
	bad.Unique = 5
	if err := g.check(bad); err == nil {
		t.Error("a stream outcome that differs from the batch pin was accepted")
	}

	// An unpinned seed is checked for determinism only.
	g = &gate{workload: "study", seed: 8, pins: pins}
	if g.pinned() {
		t.Error("seed 8 reported as pinned")
	}
	if err := g.check(study); err != nil {
		t.Errorf("unpinned first repetition refused: %v", err)
	}
}

func TestPinsLoad(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for seed, st := range pins["study"] {
		sv, ok := pins["service"][seed]
		if !ok {
			continue
		}
		if sv.RunDigest == "" {
			t.Errorf("service seed %s pinned without a run digest", seed)
		}
		sv.RunDigest = ""
		if sv != st {
			t.Errorf("seed %s: study pin %+v and service pin %+v disagree", seed, st, sv)
		}
	}
}
