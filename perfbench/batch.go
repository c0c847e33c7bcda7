package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"time"

	"mlfs"
	"mlfs/internal/cluster"
	"mlfs/internal/core"
	"mlfs/internal/core/mlfrl"
	"mlfs/internal/job"
	"mlfs/internal/metrics"
	"mlfs/internal/philly"
	"mlfs/internal/sched"
	"mlfs/internal/sim"
	"mlfs/internal/snapshot"
	"mlfs/internal/trace"
)

// batchSpec describes one batch workload: K seeded episodes, each a
// whole simulation, run in passes until the time budget is spent.
type batchSpec struct {
	name     string
	episodes int // sub-inputs per pass
	jobs     int // jobs per episode
	// passSec is the host time of one pass's episodes at the reference
	// speed (the README's host; pretraining not counted). A run makes
	// round(--seconds / passSec) passes, at least one, so every commit
	// takes its fastest repeats over the same number of passes.
	passSec float64
	// setupBuilds is how many times a pass builds each episode; the last
	// build runs and every build's time is a set-up sample. Where a build
	// takes well under a millisecond, one sample per episode would leave
	// setup_s to the timer's and the collector's noise.
	setupBuilds int
	// pretrain runs MLFS's imitation phase at the start of every pass on
	// a fixed trace; every episode starts from the trained state, so all
	// measured rounds are policy-driven (decide + REINFORCE update).
	pretrain bool
	cluster  cluster.Config
	// input builds episode k's workload: a trace or a streaming source.
	input func(seed int64, jobs int) (*trace.Trace, trace.Source)
	// newSched builds the scheduler, timed through rec when rec != nil.
	newSched func(rec *recorder) (sched.Scheduler, error)
}

// imitationRounds is MLF-RL's default imitation phase.
var imitationRounds = mlfrl.DefaultConfig().ImitationRounds

// pretrainJobs sizes the pretraining trace so that it holds more than
// imitationRounds rounds at the testbed's default pressure.
const pretrainJobs = 400

// phillyJobsPerSec is the real Philly trace's submission density:
// 117,325 jobs over 18 weeks.
const phillyJobsPerSec = 117325.0 / (18 * 7 * 24 * 3600)

// testbedSpec: the host cost of an MLFS round grows with the backlog,
// which on 80 GPUs swings with every big gang a trace happens to hold;
// 24 short traces per pass average that out where one long trace gave
// 27 to 54 jobs per second across five seeds. 48 jobs is the
// smallest trace whose default arrival window (75 s per job) is not
// raised to the one-hour floor of mlfs.DurationForCluster.
var testbedSpec = batchSpec{
	name:     "mlfs-testbed",
	episodes: 24,
	jobs:     48,
	passSec:  11.25,
	// Pretraining takes seconds; one build per episode is enough.
	setupBuilds: 1,
	pretrain:    true,
	cluster:     cluster.PaperRealConfig(),
	input: func(seed int64, jobs int) (*trace.Trace, trace.Source) {
		return mlfs.GenerateTrace(jobs, seed, mlfs.DurationForCluster(jobs, 80)), nil
	},
	newSched: func(rec *recorder) (sched.Scheduler, error) {
		if rec != nil {
			return newTracedMLFS(rec), nil
		}
		return mlfs.NewScheduler("mlfs", mlfs.SchedulerOptions{})
	},
}

var phillySpec = batchSpec{
	name:        "philly-mlfh",
	episodes:    12,
	jobs:        400,
	passSec:     11.7,
	setupBuilds: 16,
	cluster:     cluster.PaperSimConfig(),
	input: func(seed int64, jobs int) (*trace.Trace, trace.Source) {
		return nil, philly.NewSynthetic(philly.SynthConfig{Jobs: jobs, Seed: seed, DurationSec: float64(jobs) / phillyJobsPerSec})
	},
	newSched: func(rec *recorder) (sched.Scheduler, error) {
		if rec != nil {
			return &tracedMLFH{rec: rec, h: core.NewMLFH()}, nil
		}
		return mlfs.NewScheduler("mlf-h", mlfs.SchedulerOptions{})
	},
}

func runTestbed(opts options) (*report, error) { return runBatch(testbedSpec, opts) }
func runPhilly(opts options) (*report, error)  { return runBatch(phillySpec, opts) }

// subSeed derives the seed of one input of a run (SplitMix64 finaliser),
// so every input is a pure function of (run seed, index).
func subSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) + 1
}

// pretrainSeed and pretrainIndex name the pretraining trace. It does
// not depend on the run's seed, so every run and every pass does the
// same set-up work and setup_s follows the program, not the input.
const (
	pretrainSeed  = 1004
	pretrainIndex = 1 << 20
)

// maxRunFactor stops a batch run after the pass that ends beyond this
// many times --seconds, so a host far slower than the reference one
// still finishes within the run's time limit.
const maxRunFactor = 5

// tickSec is the simulator's default scheduling period.
const tickSec = 60

// episode is one simulation ready to run.
type episode struct {
	sim      *sim.Simulator
	sched    sched.Scheduler
	jobs     int
	src      *tracedSource // traced streaming runs only
	stepS    []float64     // host time of each RunStep (plain runs)
	finalCnt []int         // retirements per SimIndex
	finals   []final       // each job as it retired, by SimIndex
}

// final is what the output checks need of a retired job.
type final struct {
	done            bool
	arrival, finish float64
	jct             float64
}

// episodeMode selects the oracle variants of an episode.
type episodeMode struct {
	fullRescan     bool
	advanceWorkers int
}

// buildEpisode builds input k, the scheduler (restored from the
// pretrained state when there is one) and the simulator.
func (b batchSpec) buildEpisode(seed int64, k, jobs int, state []byte, rec *recorder, mode episodeMode) (*episode, error) {
	tr, src := b.input(subSeed(seed, k), jobs)
	sc, err := b.newSched(rec)
	if err != nil {
		return nil, err
	}
	if state != nil {
		sn, ok := sc.(sched.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("scheduler %s keeps no state", sc.Name())
		}
		r := snapshot.NewReader(state)
		if err := sn.DecodeState(r); err != nil {
			return nil, fmt.Errorf("restore pretrained state: %w", err)
		}
		if err := r.Finish(); err != nil {
			return nil, fmt.Errorf("restore pretrained state: %w", err)
		}
	}
	ep := &episode{sched: sc, jobs: jobs, finalCnt: make([]int, jobs), finals: make([]final, jobs)}
	if src != nil && rec != nil {
		ep.src = &tracedSource{rec: rec, src: src}
		src = ep.src
	}
	ep.sim, err = sim.New(sim.Config{
		Cluster:        b.cluster,
		Trace:          tr,
		Source:         src,
		Scheduler:      sc,
		FullRescan:     mode.fullRescan,
		AdvanceWorkers: mode.advanceWorkers,
	})
	if err != nil {
		return nil, err
	}
	ep.sim.SetRetireHook(func(j *job.Job) {
		if j.SimIndex >= 0 && j.SimIndex < len(ep.finalCnt) {
			ep.finalCnt[j.SimIndex]++
			ep.finals[j.SimIndex] = final{done: j.Done(), arrival: j.Arrival, finish: j.FinishTime, jct: j.JCT()}
		}
	})
	return ep, nil
}

// stepStats accumulates what the traced run observes around RunStep.
type stepStats struct {
	steps, skippedTicks int
}

// step executes one RunStep: timed when rec == nil, traced and
// counted otherwise.
func (ep *episode) step(rec *recorder, st *stepStats) (bool, error) {
	if rec == nil {
		t0 := time.Now()
		progressed, err := ep.sim.RunStep()
		ep.stepS = append(ep.stepS, time.Since(t0).Seconds())
		return progressed, err
	}
	before := ep.sim.Now()
	id := rec.begin(spanStep)
	progressed, err := ep.sim.RunStep()
	rec.end(id)
	st.steps++
	// A quiescent skip jumps the clock over whole idle ticks.
	if ticks := int(math.Round((ep.sim.Now() - before) / tickSec)); ticks > 1 {
		st.skippedTicks += ticks - 1
	}
	return progressed, err
}

// run drives the episode to its end through RunStep — the loop
// Simulator.Run is — and returns the final metrics.
func (ep *episode) run(rec *recorder, st *stepStats) (*metrics.Result, error) {
	defer ep.sim.Close()
	for {
		progressed, err := ep.step(rec, st)
		if err != nil {
			return nil, err
		}
		if !progressed {
			return ep.sim.Finish(), nil
		}
	}
}

// pretrained is the outcome of the imitation phase.
type pretrained struct {
	state    []byte
	counters metrics.Counters
	sched    sched.Scheduler
}

// runPretrain runs the imitation phase on the pretraining trace and
// encodes the scheduler state at its end.
func (b batchSpec) runPretrain(rec *recorder, st *stepStats) (*pretrained, error) {
	ep, err := b.buildEpisode(pretrainSeed, pretrainIndex, pretrainJobs, nil, rec, episodeMode{})
	if err != nil {
		return nil, err
	}
	defer ep.sim.Close()
	for ep.sim.Counters().SchedRounds < imitationRounds {
		progressed, err := ep.step(rec, st)
		if err != nil {
			return nil, err
		}
		if !progressed {
			return nil, fmt.Errorf("pretraining trace ended after %d rounds, before the %d-round imitation phase",
				ep.sim.Counters().SchedRounds, imitationRounds)
		}
	}
	sn, ok := ep.sched.(sched.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("scheduler %s keeps no state", ep.sched.Name())
	}
	w := snapshot.NewWriter()
	sn.EncodeState(w)
	return &pretrained{state: w.Bytes(), counters: ep.sim.Counters(), sched: ep.sched}, nil
}

// check verifies one episode's output against properties every correct
// run has. It returns the number of jobs the run could not complete
// (truncated at the horizon or rejected as larger than the cluster).
func (ep *episode) check(res *metrics.Result) (int, error) {
	if res.Jobs != ep.jobs || len(res.JCTs) != ep.jobs {
		return 0, fmt.Errorf("result accounts for %d jobs (%d JCTs), the workload has %d", res.Jobs, len(res.JCTs), ep.jobs)
	}
	var sumJCT float64
	for i, n := range ep.finalCnt {
		if n != 1 {
			return 0, fmt.Errorf("job %d finalised %d times, want exactly once", i, n)
		}
		f := ep.finals[i]
		if !f.done {
			return 0, fmt.Errorf("job %d retired before it was done", i)
		}
		if f.finish < f.arrival {
			return 0, fmt.Errorf("job %d finishes at %g before it arrives at %g", i, f.finish, f.arrival)
		}
		sumJCT += f.jct
	}
	// The result folds JCTs in arrival (SimIndex) order, so the same
	// fold over the retired jobs lands on the same bits.
	if avg := sumJCT / float64(ep.jobs); avg != res.AvgJCTSec {
		return 0, fmt.Errorf("average JCT over the retired jobs is %g, result says %g", avg, res.AvgJCTSec)
	}
	if avg := sum(res.JCTs) / float64(len(res.JCTs)); math.Abs(avg-res.AvgJCTSec) > 1e-9*math.Abs(res.AvgJCTSec) {
		return 0, fmt.Errorf("average of Result.JCTs is %g, AvgJCTSec is %g", avg, res.AvgJCTSec)
	}
	return res.Counters.Truncated + res.Counters.Rejected, nil
}

// sameResult compares two results bit for bit, wall-clock scheduler
// time aside; volatile additionally drops the incremental-round
// telemetry that differs between round structures by design.
func sameResult(a, b *metrics.Result, volatile bool) bool {
	x, y := *a, *b
	x.Counters.SchedSeconds, y.Counters.SchedSeconds = 0, 0
	if volatile {
		x.Counters.ZeroVolatile()
		y.Counters.ZeroVolatile()
	}
	return reflect.DeepEqual(&x, &y)
}

// batchRun is one pass over the K episodes plus the pretraining.
type batchRun struct {
	pre       *pretrained
	pretrainS float64
	results   []*metrics.Result
	setups    []float64   // per-episode build time
	stepS     [][]float64 // per-episode host time of each RunStep (plain passes)
	rounds    [][]float64 // per-episode host time of each round (plain passes)
	failed    int
}

// passHooks observe a pass; either may be nil.
type passHooks struct {
	before func()            // after each episode's build, before its run
	after  func(ep *episode) // after each episode's checks
}

// setupS is the pass's set-up time: the pretraining plus the median
// build time of an episode over all its builds.
func (r *batchRun) setupS() float64 { return r.pretrainS + median(r.setups) }

// pass runs the pretraining (when the workload has one) and all K
// episodes once.
func (b batchSpec) pass(opts options, rec *recorder, st *stepStats, hooks passHooks) (*batchRun, error) {
	out := &batchRun{results: make([]*metrics.Result, b.episodes)}
	if b.pretrain {
		t0 := time.Now()
		p, err := b.runPretrain(rec, st)
		if err != nil {
			return nil, err
		}
		out.pre, out.pretrainS = p, time.Since(t0).Seconds()
	}
	var state []byte
	if out.pre != nil {
		state = out.pre.state
	}
	for k := 0; k < b.episodes; k++ {
		// A traced pass builds once, so no span comes from a discarded build.
		builds := b.setupBuilds
		if rec != nil {
			builds = 1
		}
		var ep *episode
		for i := 0; i < builds; i++ {
			if ep != nil {
				ep.sim.Close()
			}
			t0 := time.Now()
			var err error
			ep, err = b.buildEpisode(opts.seed, k, b.jobs, state, rec, episodeMode{})
			if err != nil {
				return nil, err
			}
			out.setups = append(out.setups, time.Since(t0).Seconds())
		}
		if hooks.before != nil {
			hooks.before()
		}
		if rec == nil {
			out.rounds = append(out.rounds, nil)
			ep.sim.SetRoundTimingHook(func(sec float64) { out.rounds[k] = append(out.rounds[k], sec) })
		}
		res, err := ep.run(rec, st)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", k, err)
		}
		out.stepS = append(out.stepS, ep.stepS)
		if opts.corrupt == "drop-job" && k == 0 {
			res.JCTs = res.JCTs[1:]
		}
		failed, err := ep.check(res)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", k, err)
		}
		out.failed += failed
		out.results[k] = res
		if hooks.after != nil {
			hooks.after(ep)
		}
	}
	return out, nil
}

// oracleCheck re-runs one seeded episode under the full-rescan round
// structure and with a serial advance pool; both must reproduce the
// measured result bit for bit.
func (b batchSpec) oracleCheck(opts options, first *batchRun) error {
	k := int(uint64(opts.seed) % uint64(b.episodes))
	var state []byte
	if first.pre != nil {
		state = first.pre.state
	}
	for _, m := range []struct {
		name     string
		mode     episodeMode
		volatile bool
	}{
		{"full-rescan oracle", episodeMode{fullRescan: true}, true},
		{"serial advance (AdvanceWorkers=1)", episodeMode{advanceWorkers: 1}, false},
	} {
		ep, err := b.buildEpisode(opts.seed, k, b.jobs, state, nil, m.mode)
		if err != nil {
			return err
		}
		res, err := ep.run(nil, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		if !sameResult(first.results[k], res, m.volatile) {
			return fmt.Errorf("episode %d differs from the %s", k, m.name)
		}
	}
	return nil
}

// runBatch measures a fixed number of whole passes over the run's K
// episodes, round(--seconds / passSec). Every pass replays the same
// inputs and must reproduce the first bit for bit, so the passes
// execute the same steps and rounds and differ only in what the rest
// of the machine did meanwhile: each step and each round keeps its
// fastest repeat. Interference from other tenants only ever adds time,
// so the fastest repeat is the steadiest estimate of what the program
// costs; the pass count is fixed so that every commit takes it over the
// same number of repeats.
func runBatch(b batchSpec, opts options) (*report, error) {
	if opts.trace {
		return b.traced(opts)
	}
	want := int(math.Round(opts.seconds / b.passSec))
	if want < 1 {
		want = 1
	}
	// The heap peak is taken per episode and reported as the median, so
	// one episode's backlog does not decide a whole run's figure.
	heap := startHeapPeak()
	var peaks []float64
	hooks := passHooks{
		before: heap.reset,
		after:  func(*episode) { peaks = append(peaks, heap.peakMB()) },
	}
	start := time.Now()
	first, err := b.pass(opts, nil, nil, hooks)
	if err != nil {
		return nil, err
	}
	best := &batchRun{}
	for k := range first.results {
		best.stepS = append(best.stepS, append([]float64(nil), first.stepS[k]...))
		best.rounds = append(best.rounds, append([]float64(nil), first.rounds[k]...))
	}
	setups := []float64{first.setupS()}
	passes, failed := 1, first.failed
	for passes < want && time.Since(start).Seconds() < maxRunFactor*opts.seconds {
		again, err := b.pass(opts, nil, nil, hooks)
		if err != nil {
			return nil, err
		}
		if first.pre != nil && !bytes.Equal(first.pre.state, again.pre.state) {
			return nil, fmt.Errorf("pretraining is not reproducible: a later pass ends in a different scheduler state")
		}
		for k, res := range again.results {
			if !sameResult(first.results[k], res, false) ||
				len(again.stepS[k]) != len(best.stepS[k]) || len(again.rounds[k]) != len(best.rounds[k]) {
				return nil, fmt.Errorf("episode %d is not reproducible: a later pass differs from the first", k)
			}
			keepFastest(best.stepS[k], again.stepS[k])
			keepFastest(best.rounds[k], again.rounds[k])
		}
		setups = append(setups, again.setupS())
		passes, failed = passes+1, failed+again.failed
	}
	heap.Stop()
	measured := time.Since(start).Seconds()
	if passes < want {
		fmt.Fprintf(os.Stderr, "%s: stopped after %d of %d passes at %.0fs\n", b.name, passes, want, measured)
	}
	t0 := time.Now()
	if err := b.oracleCheck(opts, first); err != nil {
		return nil, err
	}

	var rounds []float64
	var hostS float64
	for k := range best.rounds {
		rounds = append(rounds, best.rounds[k]...)
		hostS += sum(best.stepS[k])
	}
	var jcts float64
	for _, res := range first.results {
		jcts += res.AvgJCTSec
	}
	fmt.Fprintf(os.Stderr, "%s: %d passes in %.2fs, %d rounds per pass, oracles %.2fs\n",
		b.name, passes, measured, len(rounds), time.Since(t0).Seconds())
	return &report{
		Correct:   true,
		Attempted: passes * b.episodes * b.jobs,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"throughput_per_s": {float64(b.episodes*b.jobs) / hostS, "1/s"},
			"latency_p50_ms":   {percentile(rounds, 0.5) * 1e3, "ms"},
			"peak_heap_mb":     {median(peaks), "MB"},
			"avg_jct_s":        {jcts / float64(b.episodes), "s"},
		},
	}, nil
}

// keepFastest lowers each entry of best to the matching entry of xs
// where that is smaller.
func keepFastest(best, xs []float64) {
	for i, x := range xs {
		if x < best[i] {
			best[i] = x
		}
	}
}
