package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlfs/internal/baselines"
	"mlfs/internal/cluster"
	"mlfs/internal/job"
	"mlfs/internal/metrics"
	"mlfs/internal/sched"
	"mlfs/internal/serve"
	"mlfs/internal/snapshot"
	"mlfs/internal/trace"
)

// The serve-mixed workload: mlfs-serve's service (internal/serve, the
// code behind cmd/mlfs-serve) on its default cluster with fifo, the
// journal and its default fsync on, and the clock running as fast as
// the host steps it while the requests arrive. Closed-loop clients each
// repeat one cycle of operations over loopback HTTP.
const (
	// maxClients bounds the closed-loop clients; there are never more
	// than the host has CPUs.
	maxClients = 2
	// setupBoots is how many times a run boots the service to take the
	// median set-up time; the last boot serves the measured traffic. A
	// boot takes about a millisecond, and the first few boots of a
	// process run slower than the rest, so the median needs many.
	setupBoots = 41
	// bodyPool is the number of distinct job bodies each client cycles
	// through; they are generated before the clock starts.
	bodyPool = 2048
	// longJobMinSec is the least ideal run time of a job a client will
	// cancel. The clock would have to run that far between a client's
	// 201 and its DELETE for the cancel to meet a finished job.
	longJobMinSec = 30 * 24 * 3600
	// longJobDataMB makes cancel targets long: compute per iteration
	// scales with the training data size.
	longJobDataMB = 200000
	// cyclesPerSecond sizes the traffic: each client runs this many
	// cycles per second of --seconds, about the rate two clients reach on
	// a 2-vCPU host. A fixed amount of work per run keeps the operation
	// count, the failure share and the service's memory the same from
	// run to run; the measured rates come from the run's fastest seconds.
	cyclesPerSecond = 250
	// maxTrafficFactor caps the traffic at this many times --seconds:
	// every journaled write waits for an fsync, and on a busy disk the
	// fixed traffic could otherwise outlast the run's time limit.
	maxTrafficFactor = 3
	// drainTimeout bounds the wait for the served run to finish after
	// the traffic stops.
	drainTimeout = 90 * time.Second
)

// opKind is one operation of the client cycle.
type opKind int

const (
	opSubmit     opKind = iota // POST /v1/jobs, a job that runs to its end
	opStatus                   // GET /v1/jobs/{id} of an own earlier job
	opSubmitLong               // POST /v1/jobs, a long job cancelled next
	opCancel                   // DELETE /v1/jobs/{id} of that long job
)

// cycle is what every client repeats: four submissions (one of them
// cancelled right after), three status reads, one cancel.
var cycle = []opKind{opSubmit, opStatus, opSubmit, opStatus, opSubmitLong, opCancel, opSubmit, opStatus}

// serveConfig is the service configuration of the workload.
func serveConfig(journalPath string, rec *recorder) serve.Config {
	return serve.Config{
		NewScheduler: func() (serve.Scheduler, error) {
			if rec != nil {
				return &tracedRound{rec: rec, s: baselines.NewFIFO()}, nil
			}
			return baselines.NewFIFO(), nil
		},
		SchedulerName: "fifo",
		Cluster:       cluster.PaperSimConfig(),
		JournalPath:   journalPath,
	}
}

// tracedRound times a scheduling round inside the service's loop. It
// passes on every optional interface fifo implements: the change
// journal (Dirty), on which fifo's no-op-round proof rests, the state
// encoding, and Close. drainAndCheck shows that the shim schedules as
// the plain scheduler does, skipped rounds included.
type tracedRound struct {
	rec *recorder
	s   *baselines.FIFO
}

func (t *tracedRound) Name() string { return t.s.Name() }

func (t *tracedRound) Schedule(ctx *sched.Context) {
	id := t.rec.begin(spanRound)
	t.s.Schedule(ctx)
	t.rec.end(id)
}

func (t *tracedRound) Dirty(jobs []*job.Job)                { t.s.Dirty(jobs) }
func (t *tracedRound) EncodeState(w *snapshot.Writer)       { t.s.EncodeState(w) }
func (t *tracedRound) DecodeState(r *snapshot.Reader) error { return t.s.DecodeState(r) }

// Close closes the wrapped scheduler when it holds resources.
func (t *tracedRound) Close() {
	if c, ok := any(t.s).(interface{ Close() }); ok {
		c.Close()
	}
}

// liveServer is one booted service on a loopback port.
type liveServer struct {
	srv     *serve.Server
	url     string
	journal string
	traced  bool // the scheduler is wrapped in tracedRound
	served  chan error
}

func bootServer(dir string, rec *recorder) (*liveServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	journal := filepath.Join(dir, "journal.jsonl")
	srv, err := serve.New(serveConfig(journal, rec))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, url: "http://" + ln.Addr().String(), journal: journal, traced: rec != nil, served: make(chan error, 1)}
	srv.Start()
	go func() { ls.served <- srv.Serve(ln) }()
	c := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(ls.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if time.Now().After(deadline) {
			ls.stop()
			return nil, fmt.Errorf("service not ready after 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop shuts the service down gracefully and waits for Serve to return.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.srv.Stop(ctx)
	if serr := <-ls.served; err == nil {
		err = serr
	}
	return err
}

// client is one closed-loop client.
type client struct {
	http  *http.Client
	url   string
	rng   *rand.Rand
	short [][]byte // submission bodies of jobs left to run
	long  [][]byte // submission bodies of jobs cancelled right after

	start          time.Time
	samples        []sample // one per successful operation
	failed         int
	ids, cancelled []int64
	firstErr       error
}

// sample is one successful operation: when it completed (seconds from
// the start of the traffic), its latency and its kind.
type sample struct {
	at, lat float64
	op      opKind
}

func (c *client) record(op opKind, lat float64) {
	c.samples = append(c.samples, sample{at: time.Since(c.start).Seconds(), lat: lat, op: op})
}

// newClient generates client c's request bodies from the run seed.
func newClient(url string, seed int64, c int) (*client, error) {
	cl := &client{
		http: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url:  url,
		rng:  rand.New(rand.NewSource(subSeed(seed, c))),
	}
	for len(cl.short) < bodyPool {
		s := cl.rng.Int63n(1<<62) + 1
		rec := trace.SampleRecord(rand.New(rand.NewSource(s)), trace.GenConfig{}, 0, 0)
		b, err := json.Marshal(serve.SubmitRequest{GPUs: rec.GPUs, Seed: s})
		if err != nil {
			return nil, err
		}
		cl.short = append(cl.short, b)
	}
	for len(cl.long) < bodyPool/4 {
		s := cl.rng.Int63n(1<<62) + 1
		rec := trace.SampleRecord(rand.New(rand.NewSource(s)), trace.GenConfig{}, 0, 0)
		rec.Seed, rec.GPUs, rec.TrainDataMB = s, 1, longJobDataMB
		var cursor job.TaskID
		j, err := trace.Materialize(rec, &cursor)
		if err != nil {
			return nil, err
		}
		if j.EstimatedRuntime < longJobMinSec {
			continue
		}
		b, err := json.Marshal(serve.SubmitRequest{GPUs: 1, Seed: s, StopOption: "run-to-max", TrainDataMB: longJobDataMB})
		if err != nil {
			return nil, err
		}
		cl.long = append(cl.long, b)
	}
	return cl, nil
}

// do sends one request and returns the status, the body and the
// latency from sending to the last byte of the reply.
func (c *client) do(method, path string, body []byte) (int, []byte, float64, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.url+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(t0).Seconds(), err
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// submit posts body and records the job id on a 201.
func (c *client) submit(body []byte) (int64, bool) {
	code, out, sec, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil || code != http.StatusCreated {
		c.fail(fmt.Errorf("submit: status %d, %v: %s", code, err, out))
		return 0, false
	}
	var r serve.SubmitResponse
	if err := json.Unmarshal(out, &r); err != nil {
		c.fail(fmt.Errorf("submit reply: %w", err))
		return 0, false
	}
	c.record(opSubmit, sec)
	c.ids = append(c.ids, r.ID)
	return r.ID, true
}

// loop runs the given number of whole cycles, or fewer if the deadline
// passes first.
func (c *client) loop(start, deadline time.Time, cycles int) {
	c.start = start
	n := 0
	for ; cycles > 0 && time.Now().Before(deadline); cycles-- {
		var long int64
		haveLong := false
		for _, op := range cycle {
			switch op {
			case opSubmit:
				c.submit(c.short[n%len(c.short)])
				n++
			case opSubmitLong:
				long, haveLong = c.submit(c.long[n%len(c.long)])
			case opStatus:
				if len(c.ids) == 0 {
					c.fail(errors.New("status: no accepted job to read"))
					continue
				}
				id := c.ids[c.rng.Intn(len(c.ids))]
				code, out, sec, err := c.do(http.MethodGet, "/v1/jobs/"+strconv.FormatInt(id, 10), nil)
				if err != nil || code != http.StatusOK {
					c.fail(fmt.Errorf("status %d: status %d, %v: %s", id, code, err, out))
					continue
				}
				c.record(opStatus, sec)
			case opCancel:
				if !haveLong {
					c.fail(errors.New("cancel: its submission failed"))
					continue
				}
				code, out, sec, err := c.do(http.MethodDelete, "/v1/jobs/"+strconv.FormatInt(long, 10), nil)
				if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
					c.fail(fmt.Errorf("cancel %d: status %d, %v: %s", long, code, err, out))
					continue
				}
				c.record(opCancel, sec)
				c.cancelled = append(c.cancelled, long)
			}
		}
	}
}

// servePhase is one closed-loop phase against one booted service.
type servePhase struct {
	clients       []*client
	wallS         float64
	before, after map[string]float64 // /metrics before and after the traffic
	result        *metrics.Result
	heapMB        float64 // live heap right after the traffic
	journalBytes  int64
	envelopes     int
}

// traffic pools the clients' samples.
type traffic struct {
	wallS          float64
	ok, failed     int
	submit, status []float64 // latencies
	windows        []window  // the whole one-second windows of the run
}

// window is one second of traffic.
type window struct {
	ok     int
	submit []float64
}

// fastest returns the mean request rate over the fastest third of the
// whole seconds of traffic (by successful operations) and the
// submission latencies of those seconds. Other tenants of the machine
// slow it down for seconds at a time; the fastest seconds are the
// steadiest estimate of what the service costs.
func (t traffic) fastest() (rate float64, submits []float64) {
	ws := append([]window(nil), t.windows...)
	if len(ws) == 0 {
		return float64(t.ok) / t.wallS, t.submit
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].ok > ws[j].ok })
	ws = ws[:(len(ws)+2)/3]
	ok := 0
	for _, w := range ws {
		ok += w.ok
		submits = append(submits, w.submit...)
	}
	return float64(ok) / float64(len(ws)), submits
}

func (ph *servePhase) traffic() traffic {
	t := traffic{wallS: ph.wallS, windows: make([]window, int(ph.wallS))}
	for _, c := range ph.clients {
		t.failed += c.failed
		for _, s := range c.samples {
			t.ok++
			w := int(s.at)
			if w < len(t.windows) {
				t.windows[w].ok++
			}
			switch s.op {
			case opSubmit, opSubmitLong:
				t.submit = append(t.submit, s.lat)
				if w < len(t.windows) {
					t.windows[w].submit = append(t.windows[w].submit, s.lat)
				}
			case opStatus:
				t.status = append(t.status, s.lat)
			}
		}
	}
	return t
}

// mix runs the closed loop against ls, then drains the served run and
// checks its outputs.
func mix(ls *liveServer, opts options) (*servePhase, error) {
	n := runtime.NumCPU()
	if n > maxClients {
		n = maxClients
	}
	ph := &servePhase{}
	for c := 0; c < n; c++ {
		cl, err := newClient(ls.url, opts.seed, c)
		if err != nil {
			return nil, err
		}
		ph.clients = append(ph.clients, cl)
	}
	var err error
	if ph.before, err = scrape(ls.url); err != nil {
		return nil, err
	}
	cycles := int(opts.seconds * cyclesPerSecond)
	if cycles < 1 {
		cycles = 1
	}
	start := time.Now()
	deadline := start.Add(time.Duration(maxTrafficFactor * opts.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, cl := range ph.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			cl.loop(start, deadline, cycles)
		}(cl)
	}
	wg.Wait()
	ph.wallS = time.Since(start).Seconds()
	// The service keeps a registry entry, a journal line and a result
	// tally per submission, so its heap only grows during the traffic:
	// the live heap at the end is the peak, and unlike a sampled peak it
	// does not depend on when the collector last ran.
	ph.heapMB = liveHeapMB()
	defer func() {
		for _, cl := range ph.clients {
			cl.http.CloseIdleConnections()
		}
	}()
	if ph.after, err = scrape(ls.url); err != nil {
		return nil, err
	}
	return ph, ph.drainAndCheck(ls, opts)
}

// drainAndCheck waits for the served run to finish, then checks that
// every 201 is journaled once, every acknowledged cancel ended
// cancelled, and the drained result equals the batch oracle over the
// service's own journal.
func (ph *servePhase) drainAndCheck(ls *liveServer, opts options) error {
	c := ph.clients[0]
	deadline := time.Now().Add(drainTimeout)
	for {
		var cs serve.ClusterStatus
		code, out, _, err := c.do(http.MethodGet, "/v1/cluster", nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("cluster status: %d, %v", code, err)
		}
		if err := json.Unmarshal(out, &cs); err != nil {
			return err
		}
		if cs.Queued == 0 && cs.Live == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("served run not drained after %v: %d queued, %d live", drainTimeout, cs.Queued, cs.Live)
		}
		time.Sleep(5 * time.Millisecond)
	}
	acked := map[int64]bool{}
	cancelled := map[int64]bool{}
	for _, cl := range ph.clients {
		for _, id := range cl.ids {
			acked[id] = true
		}
		for _, id := range cl.cancelled {
			cancelled[id] = true
			code, out, _, err := c.do(http.MethodGet, "/v1/jobs/"+strconv.FormatInt(id, 10), nil)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("status of cancelled job %d: %d, %v", id, code, err)
			}
			var st serve.JobStatus
			if err := json.Unmarshal(out, &st); err != nil {
				return err
			}
			if st.State != "cancelled" {
				return fmt.Errorf("job %d: cancel acknowledged, but it ended %q", id, st.State)
			}
		}
	}
	code, out, _, err := c.do(http.MethodGet, "/v1/result", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("result: %d, %v", code, err)
	}
	ph.result = &metrics.Result{}
	if err := json.Unmarshal(out, ph.result); err != nil {
		return err
	}
	if err := ls.stop(); err != nil {
		return fmt.Errorf("stop service: %w", err)
	}
	if opts.corrupt == "journal-line" {
		if err := corruptJournal(ls.journal); err != nil {
			return err
		}
	}
	records, cancels, err := serve.ReadJournal(ls.journal)
	if err != nil {
		return err
	}
	if fi, err := os.Stat(ls.journal); err == nil {
		ph.journalBytes = fi.Size()
	}
	ph.envelopes = len(records) + len(cancels)
	if len(records) != len(acked) {
		return fmt.Errorf("journal holds %d submissions, clients got %d 201s", len(records), len(acked))
	}
	for _, r := range records {
		if !acked[r.JobID] {
			return fmt.Errorf("journal submission %d was never acknowledged (or appears twice)", r.JobID)
		}
		delete(acked, r.JobID)
	}
	if len(cancels) != len(cancelled) {
		return fmt.Errorf("journal holds %d cancels, clients got %d acknowledgements", len(cancels), len(cancelled))
	}
	for _, cr := range cancels {
		if !cancelled[cr.JobID] {
			return fmt.Errorf("journal cancel of job %d was never acknowledged (or appears twice)", cr.JobID)
		}
		delete(cancelled, cr.JobID)
	}
	oracle, err := serve.Oracle(serveConfig("", nil), records, cancels)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if !sameResult(ph.result, oracle, true) {
		return fmt.Errorf("drained /v1/result differs from the batch oracle over the journal")
	}
	if ls.traced {
		// The live loop's round structure differs from the batch
		// oracle's by design, hence ZeroVolatile above. Over the same
		// journal in batch, though, the shim must reproduce the plain
		// scheduler exactly, skipped rounds and dirty-job counts
		// included, or the traced figures are not the program's.
		shim, err := serve.Oracle(serveConfig("", newRecorder()), records, cancels)
		if err != nil {
			return fmt.Errorf("oracle with the timing shim: %w", err)
		}
		if !sameResult(shim, oracle, false) {
			return fmt.Errorf("the timing shim schedules differently from plain fifo over the same journal")
		}
	}
	return nil
}

// corruptJournal edits the first submission line: one more GPU.
func corruptJournal(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	re := regexp.MustCompile(`"GPUs":(\d+)`)
	loc := re.FindSubmatchIndex(b)
	if loc == nil {
		return errors.New("corrupt: no submission in the journal")
	}
	n, _ := strconv.Atoi(string(b[loc[2]:loc[3]]))
	edited := append(append(append([]byte{}, b[:loc[2]]...), strconv.Itoa(n+1)...), b[loc[3]:]...)
	return os.WriteFile(path, edited, 0o644)
}

// scrape reads the unlabelled series and the per-handler request
// counters of /metrics.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if strings.HasPrefix(name, "mlfs_http_requests_total{") {
			for _, h := range []string{`handler="submit"`, `handler="status"`, `handler="cancel"`} {
				if strings.Contains(name, h) {
					out["requests"] += v
				}
			}
			continue
		}
		out[name] = v
	}
	return out, sc.Err()
}

func runServe(opts options) (*report, error) {
	dir, err := os.MkdirTemp(opts.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if opts.trace {
		return serveTraced(opts, dir)
	}
	var setups []float64
	var ls *liveServer
	for i := 0; i < setupBoots; i++ {
		// Every boot starts from a collected heap, so no boot pays for
		// the collection of its predecessors' garbage.
		runtime.GC()
		t0 := time.Now()
		s, err := bootServer(filepath.Join(dir, fmt.Sprintf("boot%d", i)), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupBoots-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
		} else {
			ls = s
		}
	}
	ph, err := mix(ls, opts)
	if err != nil {
		return nil, err
	}
	t := ph.traffic()
	rate, submits := t.fastest()
	attempted := t.ok + t.failed
	for _, c := range ph.clients {
		if c.firstErr != nil {
			fmt.Fprintf(os.Stderr, "serve-mixed: first failed operation: %v\n", c.firstErr)
		}
	}
	fmt.Fprintf(os.Stderr, "serve-mixed: %d requests in %.2fs (%d whole seconds), %d ticks\n",
		attempted, ph.wallS, len(t.windows), int(ph.after["mlfs_ticks_total"]-ph.before["mlfs_ticks_total"]))
	return &report{
		Correct:   true,
		Attempted: attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"throughput_per_s": {rate, "1/s"},
			"latency_p50_ms":   {percentile(submits, 0.5) * 1e3, "ms"},
			"peak_heap_mb":     {ph.heapMB, "MB"},
			"avg_jct_s":        {ph.result.AvgJCTSec, "s"},
		},
	}, nil
}

// shimIndex is the sub-seed index of shimCheck's stream.
const shimIndex = 1 << 21

// shimCheck replays a sparse seeded stream, one job every ten simulated
// minutes on the workload's cluster with demand wobble off, through the
// batch oracle with and without the timing shim. fifo may skip a round
// only while its change journal is empty and the cluster epoch has not
// moved; with wobble on, every tick with a placed job moves the epoch,
// so the traffic phase never skips and cannot show the shim's effect.
// Here most rounds are provable no-ops and every arrival follows one,
// so a shim that lost Dirty would skip the rounds that should place the
// arrivals. The two results must match bit for bit, skipped rounds
// included.
func shimCheck(seed int64) error {
	rng := rand.New(rand.NewSource(subSeed(seed, shimIndex)))
	records := make([]trace.Record, 200)
	for i := range records {
		records[i] = trace.SampleRecord(rng, trace.GenConfig{}, int64(i+1), float64(i)*600)
		records[i].Seed = rng.Int63n(1<<62) + 1
	}
	config := func(rec *recorder) serve.Config {
		cfg := serveConfig("", rec)
		cfg.DemandWobble = -1 // off
		return cfg
	}
	plain, err := serve.Oracle(config(nil), records, nil)
	if err != nil {
		return err
	}
	shim, err := serve.Oracle(config(newRecorder()), records, nil)
	if err != nil {
		return fmt.Errorf("oracle with the timing shim: %w", err)
	}
	if plain.Counters.SkippedRounds == 0 {
		return fmt.Errorf("shim check: the sparse stream skipped no round")
	}
	if !sameResult(shim, plain, false) {
		return fmt.Errorf("the timing shim schedules the sparse stream differently from plain fifo")
	}
	return nil
}

// serveTraced runs the closed loop against a plain service and then
// against one whose scheduler is wrapped in a timing shim. Each run's
// drained result must equal the batch oracle with the plain scheduler
// over its own journal, which shows the wrapper changes nothing; the
// overhead is the traced run's drop in successful requests per second.
func serveTraced(opts options, dir string) (*report, error) {
	// Two phases of half the traffic each keep the traced run within the
	// time of a plain one.
	opts.seconds /= 2
	if err := shimCheck(opts.seed); err != nil {
		return nil, err
	}
	var rate [2]float64
	var traced *servePhase
	rec := newRecorder()
	for i, r := range []*recorder{nil, rec} {
		ls, err := bootServer(filepath.Join(dir, fmt.Sprintf("phase%d", i)), r)
		if err != nil {
			return nil, err
		}
		ph, err := mix(ls, opts)
		if err != nil {
			return nil, err
		}
		rate[i] = float64(ph.traffic().ok) / ph.wallS
		traced = ph
	}
	if err := rec.write(filepath.Join(opts.outDir, fmt.Sprintf("spans-serve-mixed-seed%d.jsonl", opts.seed))); err != nil {
		return nil, err
	}
	ph := traced
	delta := func(name string) float64 { return ph.after[name] - ph.before[name] }
	t := ph.traffic()
	submits, status := t.submit, t.status
	attempted, failed := t.ok+t.failed, t.failed
	m := layerMetrics(rec.aggregate())
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	serverMean := 0.0
	if n := delta("mlfs_submit_latency_seconds_count"); n > 0 {
		serverMean = delta("mlfs_submit_latency_seconds_sum") / n * 1e3
	}
	set("serve.submit_server_mean_ms", serverMean)
	set("serve.client_overhead_ms", sum(submits)/float64(len(submits))*1e3-serverMean)
	set("serve.status_p50_ms", percentile(status, 0.5)*1e3)
	set("serve.submit_p99_ms", tailPercentile(submits)*1e3)
	set("serve.sched_s", delta("mlfs_sched_seconds_total"))
	set("serve.ticks", delta("mlfs_ticks_total"))
	set("serve.requests", delta("requests"))
	if ph.envelopes > 0 {
		set("serve.journal_bytes_per_record", float64(ph.journalBytes)/float64(ph.envelopes))
	}
	set("sim.steps", delta("mlfs_ticks_total"))
	set("sched.rounds", delta("mlfs_sched_rounds_total"))
	set("sched.skipped_rounds", delta("mlfs_skipped_rounds_total"))
	set("sched.dirty_jobs", delta("mlfs_dirty_jobs_total"))
	set("sched.placements", delta("mlfs_placements_total"))
	set("sched.migrations", delta("mlfs_migrations_total"))
	set("sched.evictions", delta("mlfs_evictions_total"))
	set("bench.trace_overhead_pct", (rate[0]/rate[1]-1)*100)
	return &report{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
