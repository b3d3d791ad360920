package main

import "testing"

// TestTimedStoreResume runs the service workload, stop and resume included,
// once through the timing decorator and once without it, at a small scale:
// both state dirs must resume to the same run digest, and the decorator
// must have seen every kind of call.
func TestTimedStoreResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small studies")
	}
	w := workload{name: "service", scale: 0.002, service: true}
	plain, err := runRep(w, repConfig{seed: 5, parallelism: 2, stateRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	plain.final.Close()
	ts := newTimedStore(nil)
	timed, err := runRep(w, repConfig{seed: 5, parallelism: 2, timed: ts, stateRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	timed.final.Close()
	if plain.out.RunDigest == "" || timed.out != plain.out {
		t.Fatalf("decorated outcome %+v, undecorated %+v", timed.out, plain.out)
	}
	if ts.snapN == 0 || ts.deltaN == 0 || ts.appendN == 0 || ts.loadN != 1 {
		t.Errorf("decorator saw %d snapshots, %d deltas, %d appends, %d loads", ts.snapN, ts.deltaN, ts.appendN, ts.loadN)
	}
	if ts.buildN != ts.snapN+ts.deltaN {
		t.Errorf("%d builds timed for %d cuts", ts.buildN, ts.snapN+ts.deltaN)
	}
	if len(timed.days) != studyDays || len(timed.alerts) != timed.out.Unique {
		t.Errorf("%d days, %d alerts for %d unique doxes", len(timed.days), len(timed.alerts), timed.out.Unique)
	}
}
