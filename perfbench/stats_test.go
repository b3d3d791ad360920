package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{93, 89},  // one study run's days
		{256, 96}, // one service run's alerts
		{100, 90},
		{11, 9},
		{10, 0}, // nothing can have ten samples beyond it
		{0, 0},
	} {
		if got := tailPercentile(c.n, 10); got != c.want {
			t.Errorf("tailPercentile(%d, 10) = %d, want %d", c.n, got, c.want)
		}
	}
	if err := checkTail("days", 89, 93, 10); err != nil {
		t.Errorf("p89 of 93: %v", err)
	}
	if err := checkTail("days", 90, 93, 10); err == nil {
		t.Error("p90 of 93 leaves 9 beyond it and must be refused")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile(xs, 1); got != 1 {
		t.Errorf("p1 = %v, want 1", got)
	}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "htmltext.sniff_ns_per_doc", "a", "9-x", "day_ms_p89"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "ä", "x:y", string(long)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	if err := checkNames(); err != nil {
		t.Fatal(err)
	}
}
