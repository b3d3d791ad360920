package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLedgerRowsBatch(t *testing.T) {
	in := ledgerIn{
		RunSec: 10, Days: 100,
		Poll: 3, Prepare: 4, Commit: 1, Monitor: 1.5,
		SitesSec: 1, SitesReq: 1000, OSNSec: 0.5, OSNReq: 250,
	}
	rows := ledgerRows(in)
	want := map[string]float64{
		"crawler.poll_ms_per_day":  20, // (3 s poll - 1 s site handlers) / 100 days
		"core.prepare_ms_per_day":  40,
		"core.commit_ms_per_day":   10,
		"stream.epoch_ms_per_day":  0,
		"monitor.sweep_ms_per_day": 10, // (1.5 - 0.5) / 100
		"sites.ns_per_req":         1e6,
		"sites.share":              0.1,
		"osn.ns_per_req":           2e6,
		"osn.share":                0.05,
		"world.share":              0.15,
		"ledger.coverage":          0.95, // 9.5 of 10 s in stages
		"ledger.other_ms_per_day":  5,    // the 0.5 s left over, per day
	}
	for k, v := range want {
		if got, ok := rows[k]; !ok || !near(got, v) {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	if len(rows) != len(want) {
		t.Errorf("%d rows, want %d", len(rows), len(want))
	}
}

func TestLedgerRowsStream(t *testing.T) {
	// The stream engine has no poll/prepare/commit stages; checkpoint time
	// comes from the store decorator.
	in := ledgerIn{
		RunSec: 8, Days: 50, Epoch: 5, Monitor: 1, SitesSec: 0.4, OSNSec: 0.2,
		StoreRunSec: 0.5, BuildSec: 0.25,
	}
	rows := ledgerRows(in)
	if rows["crawler.poll_ms_per_day"] != 0 {
		t.Errorf("poll row = %v without a poll stage", rows["crawler.poll_ms_per_day"])
	}
	if !near(rows["stream.epoch_ms_per_day"], 100) {
		t.Errorf("epoch row = %v, want 100", rows["stream.epoch_ms_per_day"])
	}
	if !near(rows["ledger.coverage"], 6.75/8) {
		t.Errorf("coverage = %v, want %v", rows["ledger.coverage"], 6.75/8)
	}
	if !near(rows["ledger.other_ms_per_day"], 1.25e3/50) {
		t.Errorf("other = %v, want 25", rows["ledger.other_ms_per_day"])
	}
}

func TestLedgerRowsEmpty(t *testing.T) {
	for k, v := range ledgerRows(ledgerIn{}) {
		if v != 0 {
			t.Errorf("%s = %v for an empty ledger, want 0", k, v)
		}
	}
}

func TestLedgerAdd(t *testing.T) {
	var sum ledgerIn
	a := ledgerIn{RunSec: 1, Days: 93, Poll: 0.5, StoreRunSec: 0.1}
	sum.add(a)
	sum.add(a)
	if sum.RunSec != 2 || sum.Days != 186 || sum.Poll != 1 || sum.StoreRunSec != 0.2 {
		t.Errorf("sum = %+v", sum)
	}
	// Normalising per day keeps two identical rounds equal to one.
	if !near(ledgerRows(sum)["crawler.poll_ms_per_day"], ledgerRows(a)["crawler.poll_ms_per_day"]) {
		t.Error("per-day rows change when identical rounds are added")
	}
}
