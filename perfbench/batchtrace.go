package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"mlfs/internal/metrics"
	"mlfs/internal/sched"
)

// traced runs one pass plain, then the same pass through the timing
// wrappers, requires bit-identical results, and reports the per-layer
// metrics of the wrapped pass.
func (b batchSpec) traced(opts options) (*report, error) {
	t0 := time.Now()
	plain, err := b.pass(opts, nil, nil, passHooks{})
	if err != nil {
		return nil, err
	}
	plainS := time.Since(t0).Seconds()
	if err := b.oracleCheck(opts, plain); err != nil {
		return nil, err
	}

	rec := newRecorder()
	st := &stepStats{}
	var counters metrics.Counters
	var rl rlCounts
	records := 0
	t1 := time.Now()
	wrapped, err := b.pass(opts, rec, st, passHooks{after: func(ep *episode) {
		rl.add(ep.sched)
		if ep.src != nil {
			records += ep.src.records
		}
	}})
	if err != nil {
		return nil, err
	}
	wrappedS := time.Since(t1).Seconds()
	if (plain.pre == nil) != (wrapped.pre == nil) || plain.pre != nil && !bytes.Equal(plain.pre.state, wrapped.pre.state) {
		return nil, fmt.Errorf("traced pretraining ends in a different scheduler state than the plain one")
	}
	for k := range plain.results {
		if !sameResult(plain.results[k], wrapped.results[k], false) {
			return nil, fmt.Errorf("traced episode %d differs from the plain run", k)
		}
		addCounters(&counters, wrapped.results[k].Counters)
	}
	if wrapped.pre != nil {
		addCounters(&counters, wrapped.pre.counters)
	}
	if err := rec.write(filepath.Join(opts.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.name, opts.seed))); err != nil {
		return nil, err
	}

	m := layerMetrics(rec.aggregate())
	m["sim.steps"] = metric{float64(st.steps), "count"}
	m["sim.skipped_ticks"] = metric{float64(st.skippedTicks), "count"}
	m["trace.records"] = metric{float64(records), "count"}
	setSchedCounters(m, counters)
	rl.report(m, wrapped.pre)
	m["bench.trace_overhead_pct"] = metric{(wrappedS/plainS - 1) * 100, "%"}
	return &report{Correct: true, Attempted: b.episodes * b.jobs, Failed: plain.failed, Metrics: m}, nil
}

func addCounters(dst *metrics.Counters, c metrics.Counters) {
	dst.SchedRounds += c.SchedRounds
	dst.SkippedRounds += c.SkippedRounds
	dst.DirtyJobs += c.DirtyJobs
	dst.Placements += c.Placements
	dst.Migrations += c.Migrations
	dst.Evictions += c.Evictions
}

func setSchedCounters(m map[string]metric, c metrics.Counters) {
	m["sched.rounds"] = metric{float64(c.SchedRounds), "count"}
	m["sched.skipped_rounds"] = metric{float64(c.SkippedRounds), "count"}
	m["sched.dirty_jobs"] = metric{float64(c.DirtyJobs), "count"}
	m["sched.placements"] = metric{float64(c.Placements), "count"}
	m["sched.migrations"] = metric{float64(c.Migrations), "count"}
	m["sched.evictions"] = metric{float64(c.Evictions), "count"}
}

// rlCounts collects MLF-RL's update counters and MLF-C's stop counter
// from each episode's scheduler. Every episode starts from the
// pretrained state, whose counters it carries; report subtracts them so
// each update counts once.
type rlCounts struct {
	raw [][3]int
}

func mlfsCounts(s sched.Scheduler) ([3]int, bool) {
	t, ok := s.(*tracedMLFS)
	if !ok {
		return [3]int{}, false
	}
	return [3]int{t.rl.Updates(), t.rl.Imitated(), t.c.Stops}, true
}

func (r *rlCounts) add(s sched.Scheduler) {
	if c, ok := mlfsCounts(s); ok {
		r.raw = append(r.raw, c)
	}
}

func (r *rlCounts) report(m map[string]metric, pre *pretrained) {
	var base, total [3]int
	if pre != nil {
		base, _ = mlfsCounts(pre.sched)
		total = base
	}
	for _, c := range r.raw {
		for i := range total {
			total[i] += c[i] - base[i]
		}
	}
	m["mlfrl.updates"] = metric{float64(total[0]), "count"}
	m["mlfrl.imitation_updates"] = metric{float64(total[1]), "count"}
	m["mlfc.stops"] = metric{float64(total[2]), "count"}
	if n := total[0] + total[1]; n > 0 {
		m["mlfrl.us_per_update"] = metric{m["mlfrl.s"].Value * 1e6 / float64(n), "us"}
	}
}
