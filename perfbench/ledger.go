package main

import (
	"doxmeter/internal/telemetry"
)

// crawlSites are the simulated services the crawlers fetch from; "osn" is
// the one the account monitor fetches from. Their handler time is world
// cost, kept apart from pipeline cost.
var crawlSites = []string{"pastebin", "fourchan", "eightch"}

// ledgerIn holds the additive totals of one or more traced runs, all read
// from outside the pipeline: the telemetry registry the study already
// exports, and the timing store decorator.
type ledgerIn struct {
	RunSec float64 // wall time of the traced Run calls
	Days   float64

	// doxmeter_stage_seconds by stage. The batch engine reports poll,
	// prepare and commit; the stream engine reports epoch instead.
	Poll, Prepare, Commit, Epoch, Monitor float64

	// Handler time and request counts of the simulated services
	// (doxmeter_http_request_seconds / doxmeter_http_requests_total).
	SitesSec, SitesReq, OSNSec, OSNReq float64

	// Store time spent inside Run (saves and appends) and checkpoint
	// build time, both from the store decorator.
	StoreRunSec, BuildSec float64
}

func (in *ledgerIn) add(o ledgerIn) {
	in.RunSec += o.RunSec
	in.Days += o.Days
	in.Poll += o.Poll
	in.Prepare += o.Prepare
	in.Commit += o.Commit
	in.Epoch += o.Epoch
	in.Monitor += o.Monitor
	in.SitesSec += o.SitesSec
	in.SitesReq += o.SitesReq
	in.OSNSec += o.OSNSec
	in.OSNReq += o.OSNReq
	in.StoreRunSec += o.StoreRunSec
	in.BuildSec += o.BuildSec
}

// readStages fills the registry-sourced fields of a traced run.
func (in *ledgerIn) readStages(reg *telemetry.Registry) {
	stage := reg.SumBy("doxmeter_stage_seconds", "stage")
	in.Poll, in.Prepare, in.Commit = stage["poll"], stage["prepare"], stage["commit"]
	in.Epoch, in.Monitor = stage["epoch"], stage["monitor"]
	secs := reg.SumBy("doxmeter_http_request_seconds", "service")
	reqs := reg.SumBy("doxmeter_http_requests_total", "service")
	for _, site := range crawlSites {
		in.SitesSec += secs[site]
		in.SitesReq += reqs[site]
	}
	in.OSNSec, in.OSNReq = secs["osn"], reqs["osn"]
}

// ledgerRows splits traced Run wall time into layer rows, per study day.
//
// The stages tile the day: poll, prepare and commit (or the stream
// engine's epoch), then the monitor sweep, then checkpointing. Site and
// OSN handler time runs inside the poll (or epoch) and monitor stages, so
// it is subtracted from them and reported as world rows. Whatever the
// rows do not cover — day bookkeeping, digests, the fan-out janitor —
// is ledger.other_ms_per_day.
func ledgerRows(in ledgerIn) map[string]float64 {
	const ms = 1e3
	perDay := func(sec float64) float64 { return ratio(sec*ms, in.Days) }
	poll := 0.0
	if in.Poll > 0 {
		poll = perDay(in.Poll - in.SitesSec)
	}
	covered := in.Poll + in.Prepare + in.Commit + in.Epoch + in.Monitor + in.StoreRunSec + in.BuildSec
	return map[string]float64{
		"crawler.poll_ms_per_day":  poll,
		"core.prepare_ms_per_day":  perDay(in.Prepare),
		"core.commit_ms_per_day":   perDay(in.Commit),
		"stream.epoch_ms_per_day":  perDay(in.Epoch),
		"monitor.sweep_ms_per_day": perDay(in.Monitor - in.OSNSec),
		"sites.ns_per_req":         ratio(in.SitesSec*1e9, in.SitesReq),
		"sites.share":              ratio(in.SitesSec, in.RunSec),
		"osn.ns_per_req":           ratio(in.OSNSec*1e9, in.OSNReq),
		"osn.share":                ratio(in.OSNSec, in.RunSec),
		"world.share":              ratio(in.SitesSec+in.OSNSec, in.RunSec),
		"ledger.coverage":          ratio(covered, in.RunSec),
		"ledger.other_ms_per_day":  perDay(in.RunSec - covered),
	}
}
