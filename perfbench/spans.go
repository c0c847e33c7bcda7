package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"mlfs/internal/core"
	"mlfs/internal/core/mlfc"
	"mlfs/internal/core/mlfrl"
	"mlfs/internal/job"
	"mlfs/internal/sched"
	"mlfs/internal/snapshot"
	"mlfs/internal/trace"
)

// Span names. Each wraps one call into a layer's public entry point;
// the program itself carries no spans yet.
const (
	spanStep  = "sim.step"       // Simulator.RunStep
	spanRound = "sched.round"    // Scheduler.Schedule as the simulator calls it
	spanMLFRL = "mlfrl.schedule" // mlfrl.Scheduler.Schedule
	spanMLFC  = "mlfc.control"   // mlfc.Controller.Control
	spanMLFH  = "core.mlfh"      // core.MLFH.Schedule
	spanNext  = "trace.next"     // trace.Source.Next
)

// span is one timed call: name, start and end relative to the
// recorder's origin, and the index of the span that was open when it
// began (-1 at the top level).
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// recorder keeps spans in memory; they are written out after the run.
// One recorder belongs to one goroutine (the simulator's run loop).
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.origin), parent: parent})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id].end = time.Since(r.origin)
	r.open = r.open[:len(r.open)-1]
}

// layerTimes aggregates the spans per name: total and self time (the
// span minus the part its child spans cover) in seconds, and every
// individual duration and self duration for percentiles.
type layerTimes struct {
	total, self float64
	durs, selfs []float64
}

func (r *recorder) aggregate() map[string]*layerTimes {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*layerTimes)
	for i, s := range r.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.name] = lt
		}
		d := (s.end - s.start).Seconds()
		self := (s.end - s.start - child[i]).Seconds()
		lt.total += d
		lt.self += self
		lt.durs = append(lt.durs, d)
		lt.selfs = append(lt.selfs, self)
	}
	return out
}

// write stores the spans as JSON lines: name, start and end in
// microseconds from the recorder's origin, parent index.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range r.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d}\n",
			i, s.name, float64(s.start)/1e3, float64(s.end)/1e3, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedMLFS is the MLFS composite assembled from its two layers, so
// that MLF-RL placement and MLF-C load control are timed apart. Its
// state encoding is the composite's (MLF-RL state, then MLF-C state).
type tracedMLFS struct {
	rec *recorder
	rl  *mlfrl.Scheduler
	c   *mlfc.Controller
}

// newTracedMLFS builds the layers with the defaults mlfs.NewScheduler
// uses for "mlfs" with zero SchedulerOptions.
func newTracedMLFS(rec *recorder) *tracedMLFS {
	cfg := mlfrl.DefaultConfig()
	cfg.Priority = core.DefaultPriorityParams()
	return &tracedMLFS{rec: rec, rl: mlfrl.New(cfg), c: mlfc.New()}
}

func (s *tracedMLFS) Name() string { return "mlfs" }

func (s *tracedMLFS) Schedule(ctx *sched.Context) {
	round := s.rec.begin(spanRound)
	a := s.rec.begin(spanMLFRL)
	s.rl.Schedule(ctx)
	s.rec.end(a)
	b := s.rec.begin(spanMLFC)
	s.c.Control(ctx)
	s.rec.end(b)
	s.rec.end(round)
}

func (s *tracedMLFS) Dirty(jobs []*job.Job) { s.rl.Dirty(jobs) }
func (s *tracedMLFS) Close()                { s.rl.Close() }

func (s *tracedMLFS) EncodeState(w *snapshot.Writer) {
	s.rl.EncodeState(w)
	s.c.EncodeState(w)
}

func (s *tracedMLFS) DecodeState(r *snapshot.Reader) error {
	if err := s.rl.DecodeState(r); err != nil {
		return err
	}
	return s.c.DecodeState(r)
}

// tracedMLFH times MLF-H's scheduling round and passes on the optional
// interfaces MLF-H implements.
type tracedMLFH struct {
	rec *recorder
	h   *core.MLFH
}

func (s *tracedMLFH) Name() string { return s.h.Name() }

func (s *tracedMLFH) Schedule(ctx *sched.Context) {
	round := s.rec.begin(spanRound)
	a := s.rec.begin(spanMLFH)
	s.h.Schedule(ctx)
	s.rec.end(a)
	s.rec.end(round)
}

func (s *tracedMLFH) Dirty(jobs []*job.Job)                { s.h.Dirty(jobs) }
func (s *tracedMLFH) EncodeState(w *snapshot.Writer)       { s.h.EncodeState(w) }
func (s *tracedMLFH) DecodeState(r *snapshot.Reader) error { return s.h.DecodeState(r) }

// tracedSource times record ingestion from a streaming source.
type tracedSource struct {
	rec     *recorder
	src     trace.Source
	records int
}

func (s *tracedSource) Next() (trace.Record, bool) {
	id := s.rec.begin(spanNext)
	r, ok := s.src.Next()
	s.rec.end(id)
	if ok {
		s.records++
	}
	return r, ok
}

func (s *tracedSource) Reset()            { s.src.Reset() }
func (s *tracedSource) Len() int          { return s.src.Len() }
func (s *tracedSource) Duration() float64 { return s.src.Duration() }

// perLayerNames lists every per-layer metric with its unit. Every traced
// run reports all of them; a layer a workload never enters reads 0.
var perLayerNames = []struct{ name, unit string }{
	{"sim.steps", "count"},
	{"sim.skipped_ticks", "count"},
	{"sim.step_self_s", "s"},
	{"sim.step_self_p50_us", "us"},
	{"trace.records", "count"},
	{"trace.next_s", "s"},
	{"sched.rounds", "count"},
	{"sched.round_s", "s"},
	{"sched.round_p99_ms", "ms"},
	{"sched.skipped_rounds", "count"},
	{"sched.dirty_jobs", "count"},
	{"sched.placements", "count"},
	{"sched.migrations", "count"},
	{"sched.evictions", "count"},
	{"core.mlfh_s", "s"},
	{"core.mlfh_p99_us", "us"},
	{"mlfrl.s", "s"},
	{"mlfrl.p50_ms", "ms"},
	{"mlfrl.p99_ms", "ms"},
	{"mlfrl.updates", "count"},
	{"mlfrl.imitation_updates", "count"},
	{"mlfrl.us_per_update", "us"},
	{"mlfc.s", "s"},
	{"mlfc.p50_us", "us"},
	{"mlfc.stops", "count"},
	{"serve.submit_server_mean_ms", "ms"},
	{"serve.client_overhead_ms", "ms"},
	{"serve.status_p50_ms", "ms"},
	{"serve.submit_p99_ms", "ms"},
	{"serve.sched_s", "s"},
	{"serve.ticks", "count"},
	{"serve.requests", "count"},
	{"serve.journal_bytes_per_record", "B"},
	{"bench.trace_overhead_pct", "%"},
}

// layerMetrics returns every per-layer metric, the span-derived ones
// filled from agg and the rest at 0 for the caller to set.
func layerMetrics(agg map[string]*layerTimes) map[string]metric {
	m := make(map[string]metric, len(perLayerNames))
	for _, n := range perLayerNames {
		m[n.name] = metric{0, n.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	if lt := agg[spanStep]; lt != nil {
		set("sim.step_self_s", lt.self)
		set("sim.step_self_p50_us", percentile(lt.selfs, 0.5)*1e6)
	}
	if lt := agg[spanRound]; lt != nil {
		set("sched.round_s", lt.total)
		set("sched.round_p99_ms", tailPercentile(lt.durs)*1e3)
	}
	if lt := agg[spanNext]; lt != nil {
		set("trace.next_s", lt.total)
	}
	if lt := agg[spanMLFH]; lt != nil {
		set("core.mlfh_s", lt.total)
		set("core.mlfh_p99_us", tailPercentile(lt.durs)*1e6)
	}
	if lt := agg[spanMLFRL]; lt != nil {
		set("mlfrl.s", lt.total)
		set("mlfrl.p50_ms", percentile(lt.durs, 0.5)*1e3)
		set("mlfrl.p99_ms", tailPercentile(lt.durs)*1e3)
	}
	if lt := agg[spanMLFC]; lt != nil {
		set("mlfc.s", lt.total)
		set("mlfc.p50_us", percentile(lt.durs, 0.5)*1e6)
	}
	return m
}
