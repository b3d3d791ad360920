// Command perfbench is doxmeter's end-to-end benchmark. It runs one of
// three workloads through the public core.NewStudy / Study.Run API for a
// fixed wall-clock budget, checks every repetition's output against the
// values pinned for the seed, and prints its metrics as one JSON line.
//
// Run it through the wrapper, from the root of a checkout:
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with no tracing.
// --trace 1 prints the per-layer ledger instead: it repeats the workload at
// Parallelism 1 with a telemetry hub and a timing store decorator, once
// more without them, replays the committed documents through each layer's
// public functions, and times the set-up calls directly. Nothing inside
// the program is changed to measure it.
//
// --pin a-b prints the outcome table for seeds a..b (the contents of
// pins.json) after checking that the batch and stream engines agree.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"doxmeter/internal/classifier"
	"doxmeter/internal/randutil"
	"doxmeter/internal/sim"
	"doxmeter/internal/telemetry"
	"doxmeter/internal/textgen"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the study sees, measured with tracing
// off at the deployment's Parallelism. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"docs_per_s", "docs/s"},
	{"day_ms_p50", "ms"},
	{"day_ms_p89", "ms"},
	{"allocs_per_doc", "allocs"},
	{"bytes_per_doc", "B"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0. The last four are end-to-end quantities that only
// some workloads have (alerts and resume exist only in service) or that
// read 0 today (fail_ratio), so they ride with the traced run.
var perLayer = []metricDef{
	{"sim.world_build_s", "s"},
	{"textgen.corpus_s", "s"},
	{"classifier.train_s", "s"},
	{"core.services_s", "s"},
	{"crawler.poll_ms_per_day", "ms"},
	{"crawler.requests_per_doc", "count"},
	{"crawler.retry_ratio", "ratio"},
	{"sites.ns_per_req", "ns"},
	{"sites.share", "ratio"},
	{"htmltext.sniff_ns_per_doc", "ns"},
	{"htmltext.sniff_docs", "count"},
	{"htmltext.sniff_hit_ratio", "ratio"},
	{"htmltext.convert_ns_per_doc", "ns"},
	{"htmltext.convert_allocs_per_doc", "allocs"},
	{"classifier.score_ns_per_doc", "ns"},
	{"classifier.score_allocs_per_doc", "allocs"},
	{"classifier.flagged_ratio", "ratio"},
	{"extract.ns_per_flagged", "ns"},
	{"extract.allocs_per_flagged", "allocs"},
	{"dedup.check_ns_per_flagged", "ns"},
	{"dedup.unique_ratio", "ratio"},
	{"label.apply_ns_per_dox", "ns"},
	{"core.prepare_ms_per_day", "ms"},
	{"core.commit_ms_per_day", "ms"},
	{"core.prepare_batch_ns_per_doc", "ns"},
	{"replay.layers_ns_per_doc", "ns"},
	{"stream.epoch_ms_per_day", "ms"},
	{"stream.backpressure_events", "count"},
	{"stream.alert_latency_ms_p50", "ms"},
	{"fanout.deliver_us_per_alert", "us"},
	{"fanout.alerts", "count"},
	{"monitor.sweep_ms_per_day", "ms"},
	{"monitor.visits_per_day", "count"},
	{"monitor.fail_ratio", "ratio"},
	{"osn.ns_per_req", "ns"},
	{"osn.share", "ratio"},
	{"store.snapshot_ms", "ms"},
	{"store.snapshot_bytes", "B"},
	{"store.delta_ms", "ms"},
	{"store.delta_bytes", "B"},
	{"store.append_us", "us"},
	{"store.load_chain_ms", "ms"},
	{"core.snapshot_build_ms", "ms"},
	{"core.restore_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"telemetry.overhead_ratio", "ratio"},
	{"ledger.coverage", "ratio"},
	{"ledger.other_ms_per_day", "ms"},
	{"world.share", "ratio"},
	{"alert_ms_p50", "ms"},
	{"alert_ms_p90", "ms"},
	{"resume_s", "s"},
	{"fail_ratio", "ratio"},
}

// dayTail is the day-time percentile day_ms_p89 reports: the highest with
// at least ten of a run's 93 days beyond it.
const dayTail = 89

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errIncorrect marks a run whose outputs failed the correctness gate.
var errIncorrect = errors.New("output check failed")

func main() {
	var (
		wname     = flag.String("workload", "", "workload: study, service or monitor")
		seed      = flag.Int64("seed", 1, "world seed")
		seconds   = flag.Int("seconds", 30, "measurement budget in seconds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
		pin       = flag.String("pin", "", "print the pinned outcomes for seeds a-b instead of benchmarking")
		stateRoot = flag.String("state-root", os.TempDir(), "directory for checkpoint state and other scratch files")
	)
	flag.Parse()
	if err := checkNames(); err != nil {
		fatal(err)
	}
	if *pin != "" {
		if err := printPins(*pin, *stateRoot); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloadNamed(*wname)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("usage: perfbench --workload study|service|monitor --seed N --seconds S --trace 0|1"))
	}
	pins, err := loadPins()
	if err != nil {
		fatal(err)
	}
	g := &gate{workload: w.name, seed: *seed, pins: pins}
	if !g.pinned() {
		fmt.Fprintf(os.Stderr, "perfbench: seed %d has no pinned outcome for %s; checking determinism and self-consistency only\n", *seed, w.name)
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	var defs []metricDef
	if *trace == 1 {
		res, err = traceRun(w, *seed, budget, *stateRoot, g)
		defs = perLayer
	} else {
		res, err = measure(w, *seed, budget, *stateRoot, g)
		defs = endToEnd
	}
	if errors.Is(err, errIncorrect) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
		res.Attempted = max(res.Attempted, 1)
		res.Metrics = map[string]metric{}
		emit(res)
		os.Exit(1)
	}
	if err != nil {
		fatal(err)
	}
	if err := checkMetrics(res.Metrics, defs); err != nil {
		fatal(err)
	}
	printTable(os.Stderr, w.name, res.Metrics, defs)
	emit(res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func emit(res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// checkNames validates the metric and workload tables.
func checkNames() error {
	seen := map[string]bool{}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			names = append(names, d.name)
		}
	}
	for _, n := range names {
		if !validName(n) || seen[n] {
			return fmt.Errorf("invalid or repeated name %q", n)
		}
		seen[n] = true
	}
	if p := tailPercentile(studyDays, 10); p != dayTail {
		return fmt.Errorf("a %d-day run supports p%d, not p%d", studyDays, p, dayTail)
	}
	return nil
}

// checkMetrics requires exactly the defined metrics, each finite.
func checkMetrics(m map[string]metric, defs []metricDef) error {
	if len(m) != len(defs) {
		return fmt.Errorf("produced %d metrics, want %d", len(m), len(defs))
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || v.Unit != d.unit {
			return fmt.Errorf("metric %s missing or in the wrong unit", d.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s = %v", d.name, v.Value)
		}
	}
	return nil
}

func withUnits(vals map[string]float64, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(vals))
	units := map[string]string{}
	for _, d := range defs {
		units[d.name] = d.unit
	}
	for k, v := range vals {
		out[k] = metric{Value: v, Unit: units[k]}
	}
	return out
}

func printTable(f *os.File, workload string, m map[string]metric, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(f, "%-8s %-32s %14.4f %s\n", workload, d.name, m[d.name].Value, d.unit)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSlice(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// checked runs one repetition and passes its output through the gate. The
// returned study is closed unless keep is set.
func checked(w workload, rc repConfig, g *gate, keep bool) (*rep, error) {
	r, err := runRep(w, rc)
	if err != nil {
		return nil, err
	}
	err = g.check(r.out)
	if err == nil {
		err = recheck(r.final)
	}
	if err != nil {
		r.final.Close()
		return nil, fmt.Errorf("%w: %s seed %d: %v", errIncorrect, w.name, g.seed, err)
	}
	if !keep {
		r.final.Close()
		r.final = nil
		runtime.GC()
	}
	return r, nil
}

// failures counts the operations of a repetition that failed: fetches
// that errored, polls and monitor sweeps that still failed after retries.
func (r *rep) failures() int64 {
	return r.fetchErr + int64(r.pollFailures+r.monitorFailures)
}

// measure runs repetitions of the workload's deployment configuration
// until the budget is spent and reports the median of each end-to-end
// metric across them.
func measure(w workload, seed int64, budget time.Duration, stateRoot string, g *gate) (result, error) {
	res := result{Correct: true}
	var setup, docsPerS, p50, tail, allocs, bytes, heap []float64
	var alertP50, alertP90, resume []float64
	deadline := time.Now().Add(budget)
	for len(setup) == 0 || time.Now().Before(deadline) {
		r, err := checked(w, deployment(w, seed, stateRoot), g, false)
		if err != nil {
			return res, err
		}
		if len(r.days) != studyDays {
			return res, fmt.Errorf("run reported %d study days, want %d", len(r.days), studyDays)
		}
		days := msSlice(r.days)
		n := float64(r.out.Collected)
		setup = append(setup, r.setup().Seconds())
		docsPerS = append(docsPerS, n/r.run.Seconds())
		p50 = append(p50, percentile(days, 50))
		tail = append(tail, percentile(days, dayTail))
		allocs = append(allocs, float64(r.mallocs)/n)
		bytes = append(bytes, float64(r.allocBytes)/n)
		heap = append(heap, float64(r.heapLive)/(1<<20))
		if w.service {
			if err := checkTail("alert latency", 90, len(r.alerts), 10); err != nil {
				return res, err
			}
			a := msSlice(r.alerts)
			alertP50 = append(alertP50, percentile(a, 50))
			alertP90 = append(alertP90, percentile(a, 90))
			resume = append(resume, r.resume.Seconds())
		}
		res.Attempted += r.fetchReq
		res.Failed += r.failures()
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d: setup %.3f s, run %.3f s, %.0f docs/s, day p50 %.2f ms p%d %.2f ms\n",
			len(setup), r.setup().Seconds(), r.run.Seconds(), n/r.run.Seconds(), percentile(days, 50), dayTail, percentile(days, dayTail))
	}
	res.Metrics = withUnits(map[string]float64{
		"setup_s":        median(setup),
		"docs_per_s":     median(docsPerS),
		"day_ms_p50":     median(p50),
		"day_ms_p89":     median(tail),
		"allocs_per_doc": median(allocs),
		"bytes_per_doc":  median(bytes),
		"heap_live_mb":   median(heap),
	}, endToEnd)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d repetitions at Parallelism %d\n", w.name, seed, len(setup), runtime.GOMAXPROCS(0))
	if w.service {
		fmt.Fprintf(os.Stderr, "perfbench: service alert_ms_p50 %.4f alert_ms_p90 %.4f resume_s %.4f (medians of %d)\n",
			median(alertP50), median(alertP90), median(resume), len(resume))
	}
	return res, nil
}

// setupSamples is how many times the traced run repeats the set-up calls.
const setupSamples = 3

// setupCalls times the three expensive steps of NewStudy by calling the
// same public functions directly, in the same order and with the same
// seeds.
func setupCalls(seed int64, scale float64, parallelism int) (world, corpus, train time.Duration, err error) {
	t := time.Now()
	wd := sim.NewWorld(sim.Default(seed, scale))
	world = time.Since(t)
	t = time.Now()
	gen := textgen.New(wd)
	examples := gen.TrainingSet()
	_ = gen.Corpus()
	corpus = time.Since(t)
	exs := make([]classifier.Example, len(examples))
	for i, ex := range examples {
		exs[i] = classifier.Example{Body: ex.Body, IsDox: ex.IsDox}
	}
	rng := randutil.Derive(randutil.New(seed^0x636f7265), "train")
	t = time.Now()
	_, _, err = classifier.TrainEval(rng, exs, classifier.Options{Parallelism: parallelism})
	train = time.Since(t)
	return world, corpus, train, err
}

// traceRun produces the per-layer ledger. Each round runs the workload at
// Parallelism 1 twice: traced (telemetry hub, timing store decorator) and
// plain (neither). The first plain study is replayed layer by layer; its
// counts must equal the traced run's.
func traceRun(w workload, seed int64, budget time.Duration, stateRoot string, g *gate) (result, error) {
	res := result{Correct: true}
	var in ledgerIn
	var tracedRun, plainRun, resumeDur time.Duration
	var plainSetups []float64
	var rounds int
	var crawlReq, crawlRetries, monReq, monErr, scrapes, backpressure, collected float64
	var gcCycles, gcPause float64
	var alertP50s []float64
	var fetchReq, fetchFail int64
	ts := newTimedStore(nil)
	var rp *replayStats
	deadline := time.Now().Add(budget)
	for rounds == 0 || time.Now().Before(deadline) {
		rounds++
		hub := telemetry.NewHub(0, nil)
		tr, err := checked(w, repConfig{seed: seed, parallelism: 1, hub: hub, record: true, timed: ts, stateRoot: stateRoot}, g, false)
		if err != nil {
			return res, err
		}
		reg := hub.Registry
		li := ledgerIn{RunSec: tr.runRun.Seconds(), Days: float64(len(tr.days))}
		li.readStages(reg)
		in.add(li)
		tracedRun += tr.runRun
		resumeDur += tr.resume
		collected += float64(tr.out.Collected)
		reqs := reg.SumBy("doxmeter_fetch_requests_total", "site")
		retries := reg.SumBy("doxmeter_fetch_retries_total", "site")
		errs := reg.SumBy("doxmeter_fetch_errors_total", "site")
		for site, n := range reqs {
			if site == "monitor" {
				monReq += n
				monErr += errs[site]
				continue
			}
			crawlReq += n
			crawlRetries += retries[site]
		}
		scrapes += reg.Sum("doxmeter_monitor_scrapes_total")
		backpressure += reg.Sum("doxmeter_stream_backpressure_total")
		if w.service {
			alertP50s = append(alertP50s, 1e3*reg.NewHistogram("doxmeter_alert_latency_seconds", "", nil).With().Quantile(0.5))
		}
		gcCycles += float64(tr.gcCycles)
		gcPause += float64(tr.gcPause) / 1e6
		fetchReq += tr.fetchReq
		fetchFail += tr.failures()

		pl, err := checked(w, repConfig{seed: seed, parallelism: 1, record: true, stateRoot: stateRoot}, g, rp == nil)
		if err != nil {
			return res, err
		}
		plainRun += pl.runRun
		for _, d := range pl.setups {
			plainSetups = append(plainSetups, d.Seconds())
		}
		if rp == nil {
			rp, err = replay(pl.final, w.service)
			pl.final.Close()
			pl.final = nil
			runtime.GC()
			if err != nil {
				return res, err
			}
			if err := rp.reconcile(tr.out); err != nil {
				return res, fmt.Errorf("%w: %v", errIncorrect, err)
			}
		}
	}
	in.StoreRunSec = ts.runDur().Seconds()
	in.BuildSec = ts.buildDur.Seconds()
	res.Attempted, res.Failed = fetchReq, fetchFail

	var world, corpus, train []float64
	for i := 0; i < setupSamples; i++ {
		wd, cd, td, err := setupCalls(seed, w.scale, 1)
		if err != nil {
			return res, err
		}
		world, corpus, train = append(world, wd.Seconds()), append(corpus, cd.Seconds()), append(train, td.Seconds())
	}
	vals := ledgerRows(in)
	n := float64(rounds)
	vals["sim.world_build_s"] = median(world)
	vals["textgen.corpus_s"] = median(corpus)
	vals["classifier.train_s"] = median(train)
	vals["core.services_s"] = median(plainSetups) - median(world) - median(corpus) - median(train)
	vals["crawler.requests_per_doc"] = ratio(crawlReq, collected)
	vals["crawler.retry_ratio"] = ratio(crawlRetries, crawlReq)

	nsPer := func(d time.Duration, count int) float64 { return ratio(float64(d.Nanoseconds()), float64(count)) }
	vals["htmltext.sniff_ns_per_doc"] = nsPer(rp.sniff, rp.sniffed)
	vals["htmltext.sniff_docs"] = float64(rp.sniffed)
	vals["htmltext.sniff_hit_ratio"] = ratio(float64(rp.sniffHits), float64(rp.sniffed))
	vals["htmltext.convert_ns_per_doc"] = nsPer(rp.convert, rp.converted)
	vals["htmltext.convert_allocs_per_doc"] = ratio(float64(rp.convertAllocs), float64(rp.converted))
	vals["classifier.score_ns_per_doc"] = nsPer(rp.classify, rp.docs)
	vals["classifier.score_allocs_per_doc"] = ratio(float64(rp.classifyAllocs), float64(rp.docs))
	vals["classifier.flagged_ratio"] = ratio(float64(rp.flagged), float64(rp.docs))
	vals["extract.ns_per_flagged"] = nsPer(rp.extract, rp.flagged)
	vals["extract.allocs_per_flagged"] = ratio(float64(rp.xAllocs), float64(rp.flagged))
	vals["dedup.check_ns_per_flagged"] = nsPer(rp.dedup, rp.flagged)
	vals["dedup.unique_ratio"] = ratio(float64(rp.unique), float64(rp.flagged))
	vals["label.apply_ns_per_dox"] = nsPer(rp.label, rp.unique)
	vals["core.prepare_batch_ns_per_doc"] = nsPer(rp.prepareBatch, rp.docs)
	vals["replay.layers_ns_per_doc"] = nsPer(rp.sniff+rp.convert+rp.classify+rp.extract, rp.docs)

	vals["stream.backpressure_events"] = backpressure / n
	vals["stream.alert_latency_ms_p50"] = median(alertP50s)
	vals["fanout.deliver_us_per_alert"] = 0
	vals["fanout.alerts"] = 0
	if w.service {
		vals["fanout.deliver_us_per_alert"] = nsPer(rp.fanout, rp.unique) / 1e3
		vals["fanout.alerts"] = float64(rp.unique)
	}
	vals["monitor.visits_per_day"] = ratio(scrapes, in.Days)
	vals["monitor.fail_ratio"] = ratio(monErr, monReq)

	msPer := func(d time.Duration, count int) float64 { return ratio(ms(d), float64(count)) }
	vals["store.snapshot_ms"] = msPer(ts.snapDur, ts.snapN)
	vals["store.snapshot_bytes"] = ratio(float64(ts.snapBytes), float64(ts.snapN))
	vals["store.delta_ms"] = msPer(ts.deltaDur, ts.deltaN)
	vals["store.delta_bytes"] = ratio(float64(ts.deltaBytes), float64(ts.deltaN))
	vals["store.append_us"] = msPer(ts.appendDur, ts.appendN) * 1e3
	vals["store.load_chain_ms"] = msPer(ts.loadDur, ts.loadN)
	vals["core.snapshot_build_ms"] = msPer(ts.buildDur, ts.buildN)
	vals["core.restore_ms"] = 0
	if w.service {
		vals["core.restore_ms"] = msPer(resumeDur-ts.loadDur-ts.entriesDur, rounds)
	}
	vals["runtime.gc_cycles"] = gcCycles / n
	vals["runtime.gc_pause_ms"] = gcPause / n
	vals["telemetry.overhead_ratio"] = ratio(tracedRun.Seconds(), plainRun.Seconds())

	vals["alert_ms_p50"], vals["alert_ms_p90"], vals["resume_s"] = 0, 0, 0
	vals["fail_ratio"] = ratio(float64(fetchFail), float64(fetchReq))
	if w.service {
		// Alert latency and resume time are end-to-end quantities: take
		// them from one repetition of the deployment configuration.
		r, err := checked(w, deployment(w, seed, stateRoot), g, false)
		if err != nil {
			return res, err
		}
		if err := checkTail("alert latency", 90, len(r.alerts), 10); err != nil {
			return res, err
		}
		a := msSlice(r.alerts)
		vals["alert_ms_p50"] = percentile(a, 50)
		vals["alert_ms_p90"] = percentile(a, 90)
		vals["resume_s"] = r.resume.Seconds()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d traced rounds at Parallelism 1; replay of %d documents reconciled\n", w.name, seed, rounds, rp.docs)
	res.Metrics = withUnits(vals, perLayer)
	return res, nil
}

// printPins runs every workload once per seed in the range and prints the
// outcome table, refusing to pin a seed where the batch and stream engines
// disagree.
func printPins(spec, stateRoot string) error {
	lo, hi, ok := strings.Cut(spec, "-")
	a, err1 := strconv.ParseInt(lo, 10, 64)
	b, err2 := strconv.ParseInt(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || b < a {
		return fmt.Errorf("-pin wants a seed range a-b, got %q", spec)
	}
	table := pinTable{}
	for _, w := range workloads {
		table[w.name] = map[string]outcome{}
	}
	for seed := a; seed <= b; seed++ {
		key := strconv.FormatInt(seed, 10)
		for _, w := range workloads {
			g := &gate{workload: w.name, seed: seed, pins: pinTable{}}
			r, err := checked(w, deployment(w, seed, stateRoot), g, false)
			if err != nil {
				return err
			}
			table[w.name][key] = r.out
			fmt.Fprintf(os.Stderr, "pinned %s seed %d: %+v\n", w.name, seed, r.out)
		}
		st, sv := table["study"][key], table["service"][key]
		sv.RunDigest = ""
		if st != sv {
			return fmt.Errorf("seed %d: batch outcome %+v, stream outcome %+v", seed, st, sv)
		}
	}
	b2, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b2))
	return nil
}
