package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"doxmeter/internal/core"
	"doxmeter/internal/crawler"
	"doxmeter/internal/feed"
	"doxmeter/internal/notify"
	"doxmeter/internal/simclock"
	"doxmeter/internal/store"
	"doxmeter/internal/stream"
	"doxmeter/internal/telemetry"
	"doxmeter/internal/watchlist"
)

// workload is one benchmark configuration of the study. BENCHMARK.json
// and README.md give the reason for each.
type workload struct {
	name string
	// scale and controlSample are passed to core.StudyConfig unchanged.
	scale         float64
	controlSample int
	// service runs the always-on deployment: stream engine, alert fan-out,
	// telemetry hub and delta checkpoints, with one stop and resume.
	service bool
}

// workloads are the three ways the pipeline is run. study and service use
// the same world, so their outputs must agree; monitor shifts the work from
// document ingest to the account monitor.
var workloads = []workload{
	{name: "study", scale: 0.05},
	{name: "service", scale: 0.05, service: true},
	{name: "monitor", scale: 0.01, controlSample: 13392},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stopAfterDays is the study day after which the service workload stops
// and resumes: mid delta chain, so the restore replays deltas.
const stopAfterDays = 60

// studyDays is the number of study days in a full run, period1Days of
// them in the first collection period.
const (
	studyDays   = 93
	period1Days = 43
)

// feedSalt keys the notification registry; it must stay the same across
// the service restart.
const feedSalt = "perfbench-salt"

// repConfig sets what one repetition of a workload runs with.
type repConfig struct {
	seed int64
	// parallelism is StudyConfig.Parallelism (0 = GOMAXPROCS).
	parallelism int
	// hub instruments the study.
	hub *telemetry.Hub
	// record sets StudyConfig.RecordCollectedIDs (traced runs replay the
	// committed set).
	record bool
	// timed wraps the service workload's state store in a timing decorator.
	timed *timedStore
	// stateRoot is where checkpoint directories are created.
	stateRoot string
}

// rep is the measured result of one repetition.
type rep struct {
	final  *core.Study // the study holding the finished state; caller closes it
	out    outcome
	setups []time.Duration // each NewStudy call

	run    time.Duration // Run legs plus Resume
	runRun time.Duration // Run legs alone
	resume time.Duration
	days   []time.Duration
	alerts []time.Duration

	mallocs, allocBytes uint64
	heapLive            uint64
	gcCycles            uint32
	gcPause             uint64 // ns

	fetchReq, fetchErr int64 // HTTP attempts and failed attempts in Run
	pollFailures       int
	monitorFailures    int
}

// dayClock is the study's Progress writer: it timestamps the line the study
// prints at the end of every day, maps each virtual day to the wall time it
// started, and can stop the study after a given number of days.
type dayClock struct {
	study     *core.Study
	last      time.Time
	days      []time.Duration
	starts    map[int64]time.Time // virtual day (Unix s) -> wall start
	stopAfter int
}

func newDayClock(stopAfter int) *dayClock {
	return &dayClock{starts: make(map[int64]time.Time), stopAfter: stopAfter}
}

func (c *dayClock) begin(s *core.Study) {
	c.study = s
	c.last = time.Now()
}

func (c *dayClock) Write(p []byte) (int, error) {
	now := time.Now()
	c.days = append(c.days, now.Sub(c.last))
	c.starts[c.study.Clock.Now().Unix()] = c.last
	c.last = now
	if c.stopAfter > 0 && len(c.days) == c.stopAfter {
		c.study.RequestStop()
	}
	return len(p), nil
}

// alertSeen is one feed event as the subscriber received it.
type alertSeen struct {
	seenAt time.Time
	at     time.Time
}

// subscriber long-polls a feed log's HTTP handler the way a feed consumer
// does, recording when each event arrives.
type subscriber struct {
	cursor atomic.Int64
	got    []alertSeen
	err    error
}

// follow starts polling h on its own goroutine. The returned function
// waits until every event up to log.LastSeq() has arrived, then stops the
// goroutine and waits for it to exit.
func (sb *subscriber) follow(h http.Handler, log *feed.Log) func() error {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ctx.Err() == nil && sb.err == nil {
			sb.poll(ctx, h)
		}
	}()
	return func() error {
		deadline := time.Now().Add(30 * time.Second)
		for sb.cursor.Load() < log.LastSeq() && time.Now().Before(deadline) {
			select {
			case <-done:
				deadline = time.Now()
			case <-time.After(time.Millisecond):
			}
		}
		cancel()
		<-done
		if sb.err != nil {
			return sb.err
		}
		if c, want := sb.cursor.Load(), log.LastSeq(); c < want {
			return fmt.Errorf("feed subscriber stopped at cursor %d of %d", c, want)
		}
		return nil
	}
}

func (sb *subscriber) poll(ctx context.Context, h http.Handler) {
	url := "/events?cursor=" + strconv.FormatInt(sb.cursor.Load(), 10) + "&wait=1s"
	req := httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	at := time.Now()
	if ctx.Err() != nil {
		return
	}
	if rec.Code != http.StatusOK {
		sb.err = fmt.Errorf("feed %s: status %d: %s", url, rec.Code, rec.Body.String())
		return
	}
	dec := json.NewDecoder(rec.Body)
	for dec.More() {
		var ev feed.Event
		if err := dec.Decode(&ev); err != nil {
			sb.err = fmt.Errorf("feed %s: %w", url, err)
			return
		}
		sb.got = append(sb.got, alertSeen{seenAt: ev.SeenAt, at: at})
		sb.cursor.Store(ev.Seq)
	}
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// memSpan accumulates allocation counters between pairs of readings.
type memSpan struct {
	mallocs, bytes, gcPause uint64
	gcCycles                uint32
}

func (m *memSpan) add(a, b runtime.MemStats) {
	m.mallocs += b.Mallocs - a.Mallocs
	m.bytes += b.TotalAlloc - a.TotalAlloc
	m.gcCycles += b.NumGC - a.NumGC
	m.gcPause += b.PauseTotalNs - a.PauseTotalNs
}

func (w workload) config(rc repConfig) core.StudyConfig {
	return core.StudyConfig{
		Seed:               rc.seed,
		Scale:              w.scale,
		ControlSample:      w.controlSample,
		Parallelism:        rc.parallelism,
		RecordCollectedIDs: rc.record,
		Telemetry:          rc.hub,
	}
}

// deployment is the configuration a workload is deployed with: default
// Parallelism, and for the service a telemetry hub of its own.
func deployment(w workload, seed int64, stateRoot string) repConfig {
	rc := repConfig{seed: seed, stateRoot: stateRoot}
	if w.service {
		rc.hub = telemetry.NewHub(0, nil)
	}
	return rc
}

// setup is the wall time of the repetition's NewStudy calls.
func (r *rep) setup() time.Duration {
	var d time.Duration
	for _, s := range r.setups {
		d += s
	}
	return d
}

// runRep runs one repetition of the workload and measures it.
func runRep(w workload, rc repConfig) (*rep, error) {
	if w.service {
		return runService(w, rc)
	}
	r := &rep{}
	cfg := w.config(rc)
	clock := newDayClock(0)
	cfg.Progress = clock
	t0 := time.Now()
	s, err := core.NewStudy(cfg)
	r.setups = append(r.setups, time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("NewStudy: %w", err)
	}
	runtime.GC()
	var mem memSpan
	m0 := readMem()
	clock.begin(s)
	f0 := s.FetchStats()
	t1 := time.Now()
	err = s.Run(context.Background())
	r.run = time.Since(t1)
	r.runRun = r.run
	mem.add(m0, readMem())
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("Run: %w", err)
	}
	r.days = clock.days
	r.addFetch(f0, s.FetchStats())
	r.finish(s, mem, false)
	return r, nil
}

// addFetch adds the fetch counters' growth over one Run. The counters live
// on the telemetry registry when a hub is attached, so a hub shared by
// both service legs carries the first leg's counts into the second.
func (r *rep) addFetch(before, after crawler.FetchStats) {
	r.fetchReq += after.Requests - before.Requests
	r.fetchErr += after.Errors - before.Errors
}

// finish records the end-of-run state shared by every workload.
func (r *rep) finish(s *core.Study, mem memSpan, durable bool) {
	r.final = s
	r.mallocs, r.allocBytes = mem.mallocs, mem.bytes
	r.gcCycles, r.gcPause = mem.gcCycles, mem.gcPause
	runtime.GC()
	r.heapLive = readMem().HeapAlloc
	r.out = outcomeOf(s, durable)
	for _, n := range s.PollFailures {
		r.pollFailures += n
	}
	r.monitorFailures = s.MonitorFailures
}

// runService runs the service workload: a streaming study with the three
// mitigation services attached, stopped after day stopAfterDays and
// resumed from its delta checkpoints by a fresh study, while a feed
// subscriber measures when each alert arrives.
func runService(w workload, rc repConfig) (*rep, error) {
	dir, err := os.MkdirTemp(rc.stateRoot, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &rep{}
	var mem memSpan
	var sub subscriber
	var clocks []*dayClock

	leg := func(resume bool) (*core.Study, *store.File, error) {
		fileStore, err := store.OpenFile(dir)
		if err != nil {
			return nil, nil, err
		}
		var st store.DeltaStore = fileStore
		if rc.timed != nil {
			rc.timed.inner = fileStore
			st = rc.timed
		}
		var s *core.Study
		wl := watchlist.New(0, func() time.Time {
			if s != nil {
				return s.Clock.Now()
			}
			return simclock.Period1.Start
		})
		log := feed.NewLog()
		cfg := w.config(rc)
		cfg.Stream = &core.StreamConfig{Fanout: &stream.Fanout{Notify: notify.NewService(feedSalt), Watchlist: wl, Feed: log}}
		cfg.Checkpoint = &core.CheckpointConfig{Store: st, Mode: core.CheckpointDelta}
		stop := 0
		if !resume {
			stop = stopAfterDays
		}
		clock := newDayClock(stop)
		clocks = append(clocks, clock)
		cfg.Progress = clock

		t0 := time.Now()
		s, err = core.NewStudy(cfg)
		r.setups = append(r.setups, time.Since(t0))
		if err != nil {
			fileStore.Close()
			return nil, nil, fmt.Errorf("NewStudy: %w", err)
		}
		fail := func(err error) (*core.Study, *store.File, error) {
			s.Close()
			fileStore.Close()
			return nil, nil, err
		}
		runtime.GC()
		m0 := readMem()
		t1 := time.Now()
		if resume {
			info, err := s.Resume()
			r.resume = time.Since(t1)
			if err != nil {
				return fail(fmt.Errorf("Resume: %w", err))
			}
			if !info.Resumed || info.Period != 2 || info.Day != stopAfterDays-period1Days-1 {
				return fail(fmt.Errorf("resumed at %+v, want period 2 day %d", info, stopAfterDays-period1Days-1))
			}
		}
		stopSub := sub.follow(log.Handler(), log)
		clock.begin(s)
		f0 := s.FetchStats()
		t2 := time.Now()
		runErr := s.Run(context.Background())
		r.runRun += time.Since(t2)
		r.run += time.Since(t1)
		mem.add(m0, readMem())
		subErr := stopSub()
		r.addFetch(f0, s.FetchStats())
		var want error
		if !resume {
			want = core.ErrStopped
		}
		if !errors.Is(runErr, want) {
			return fail(fmt.Errorf("Run returned %v, want %v", runErr, want))
		}
		if subErr != nil {
			return fail(subErr)
		}
		if !resume {
			s.Close()
			return nil, nil, fileStore.Close()
		}
		return s, fileStore, nil
	}

	if _, _, err := leg(false); err != nil {
		return nil, err
	}
	s, fileStore, err := leg(true)
	if err != nil {
		return nil, err
	}
	defer fileStore.Close()
	starts := make(map[int64]time.Time)
	for _, c := range clocks {
		r.days = append(r.days, c.days...)
		for k, v := range c.starts {
			starts[k] = v
		}
	}
	for _, a := range sub.got {
		start, ok := starts[a.seenAt.Unix()]
		if !ok {
			s.Close()
			return nil, fmt.Errorf("alert seen at %s maps to no study day", a.seenAt)
		}
		r.alerts = append(r.alerts, a.at.Sub(start))
	}
	r.finish(s, mem, true)
	return r, nil
}
