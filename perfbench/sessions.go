package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"skope/internal/explore"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/pipeline"
	"skope/internal/store"
	"skope/internal/workloads"
)

// sessionTTL is the daemon's -session-ttl: finished sessions are dropped
// after it, so daemon memory does not grow with the ops a run completes.
const sessionTTL = "50ms"

// The daemon's default session settings, needed to address its store
// records from this process.
var (
	daemonCriteria = hotspot.Criteria{TimeCoverage: 0.90, CodeLeanness: 0.50, MaxSpots: 10}
	daemonLimits   = guard.Default()
)

// daemon is one skoped process on a fresh store and data directory.
type daemon struct {
	cmd   *exec.Cmd
	url   string
	dir   string
	store string
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

// startDaemon starts skoped in a new directory under parent and waits
// until it answers /v1/healthz.
func startDaemon(ctx context.Context, bin, parent string, client *http.Client) (*daemon, error) {
	dir, err := os.MkdirTemp(parent, "skoped-")
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, "skoped.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer log.Close()
	d := &daemon{url: "http://" + addr, dir: dir, store: filepath.Join(dir, "store.cas"), exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-store", d.store, "-data-dir", dir,
		"-session-ttl", sessionTTL, "-scrub-interval", "0")
	d.cmd.Stdout, d.cmd.Stderr = log, log
	// The daemon dies with this process, however this process ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.exited)
	}()
	for {
		var h healthz
		if err := getJSON(ctx, client, d.url+"/v1/healthz", &h); err == nil {
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("skoped exited before serving; see its log in %s", dir)
		case <-ctx.Done():
			d.stop()
			os.RemoveAll(dir)
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop ends the daemon and waits until it has exited. Stopping twice is
// harmless.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// healthz is the part of GET /v1/healthz the benchmark reads.
type healthz struct {
	Store struct {
		Records int `json:"records"`
		Hits    int `json:"hits"`
		Misses  int `json:"misses"`
	} `json:"store"`
}

// resultLine is one NDJSON line of a session's result stream: a
// "progress", "result" or "summary" line.
type resultLine struct {
	Type           string  `json:"type"`
	State          string  `json:"state"`
	Variant        string  `json:"variant"`
	Fingerprint    string  `json:"machine_fingerprint"`
	TotalTimeS     float64 `json:"total_time_s"`
	Provenance     string  `json:"provenance"`
	Error          string  `json:"error"`
	Layout         string  `json:"layout_fingerprint"`
	Total          int     `json:"total"`
	Computed       int     `json:"computed"`
	FromJournal    int     `json:"from_journal"`
	FromStore      int     `json:"from_store"`
	SkippedPrepare bool    `json:"skipped_prepare"`
	BaselineTimeS  float64 `json:"baseline_time_s"`
}

// session is one finished session as the client saw it.
type session struct {
	results []resultLine
	summary resultLine
	lines   int
	bytes   int
}

// reference is a benchmark's cold session from setup: the projected time
// of every variant, by machine fingerprint, and of the baseline.
type reference struct {
	times    map[string]float64
	baseline float64
	layout   string
}

// pendingCheck is a novel session's freshly computed variants, checked
// against an in-process sweep after the window.
type pendingCheck struct {
	bench   string
	latency float64
	times   map[string]float64
}

// sessions drives skoped with one client over one connection. A novel op
// adds a never-used network latency to the 60-variant base grid, so 12
// variants are unseen and the daemon falls back to a cold Prepare. A
// repeat op re-submits a grid setup already stored, so the session is
// served warm without preparing.
type sessions struct {
	novel   bool
	bin     string
	workdir string
	in      *inputs
	client  *http.Client

	d    *daemon
	refs map[string]*reference
	// extra is each benchmark's latency beyond the base grid in repeat
	// sessions, drawn once so every setup stores the same grids.
	extra   map[string]float64
	pending []pendingCheck

	// Traced-run counters, summed over traced sessions.
	traced                               int
	lines, bytes, computed, fromStore    int
	skipped                              int
	storeHits, storeMisses, storeRecords int
	storeBytes                           int64
}

func newSessions(novel bool, bin, workdir string, in *inputs) *sessions {
	s := &sessions{novel: novel, bin: bin, workdir: workdir, in: in,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		},
	}
	if !novel {
		s.extra = make(map[string]float64)
		for _, b := range benchmarks {
			s.extra[b] = in.novelLatency()
		}
	}
	return s
}

// axes is the grid setup stores for a benchmark.
func (s *sessions) axes(bench string) []string {
	if s.novel {
		return sessionAxes()
	}
	return sessionAxes(s.extra[bench])
}

// setup starts a daemon on a fresh store and runs one cold session per
// benchmark, which stores the grid and gives the reference results.
func (s *sessions) setup(ctx context.Context) error {
	d, err := startDaemon(ctx, s.bin, s.workdir, s.client)
	if err != nil {
		return err
	}
	s.d = d
	s.refs = make(map[string]*reference)
	for _, b := range benchmarks {
		sess, _, err := s.session(ctx, b, s.axes(b), nil)
		if err != nil {
			return fmt.Errorf("%s: %w", b, err)
		}
		if sess.summary.Computed != len(sess.results)+1 {
			return fmt.Errorf("%s: cold session computed %d of %d variants", b, sess.summary.Computed, len(sess.results)+1)
		}
		ref := &reference{times: make(map[string]float64), baseline: sess.summary.BaselineTimeS, layout: sess.summary.Layout}
		for _, r := range sess.results {
			ref.times[r.Fingerprint] = r.TotalTimeS
		}
		s.refs[b] = ref
	}
	return nil
}

func (s *sessions) teardown() {
	if s.d != nil {
		s.d.stop()
		os.RemoveAll(s.d.dir)
		s.d = nil
	}
	s.client.CloseIdleConnections()
}

// session submits one sweep and reads its result stream to the summary.
// The returned duration covers the submit and the whole stream; parsing
// and checks come after it.
func (s *sessions) session(ctx context.Context, bench string, axes []string, tr *tracer) (*session, time.Duration, error) {
	body, err := json.Marshal(map[string]any{"bench": bench, "machine": "bgq", "sweep": axes})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	end := func() {}
	if tr != nil {
		end = tr.begin("skoped.submit")
	}
	var created struct {
		ID string `json:"id"`
	}
	err = postJSON(ctx, s.client, s.d.url+"/v1/sessions", body, &created)
	end()
	if err != nil {
		return nil, time.Since(start), err
	}
	if tr != nil {
		end = tr.begin("skoped.results")
	}
	stream, err := get(ctx, s.client, s.d.url+"/v1/sessions/"+created.ID+"/results")
	end()
	d := time.Since(start)
	if err != nil {
		return nil, d, err
	}
	sess := &session{bytes: len(stream)}
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line resultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, d, fmt.Errorf("session %s: line %d: %w", created.ID, sess.lines+1, err)
		}
		sess.lines++
		switch line.Type {
		case "result":
			sess.results = append(sess.results, line)
		case "summary":
			sess.summary = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, d, err
	}
	if sess.summary.State != "done" {
		return nil, d, fmt.Errorf("session %s ended %q: %s", created.ID, sess.summary.State, sess.summary.Error)
	}
	if len(sess.results) != sess.summary.Total {
		return nil, d, fmt.Errorf("session %s streamed %d results of %d", created.ID, len(sess.results), sess.summary.Total)
	}
	return sess, d, nil
}

func (s *sessions) op(ctx context.Context, bench string) (time.Duration, error) {
	return s.runOp(ctx, bench, nil)
}

// tracedOp is the same session with spans around the submit and the
// stream, and the daemon's store counters read before and after.
func (s *sessions) tracedOp(ctx context.Context, bench string, tr *tracer) (time.Duration, error) {
	var before, after healthz
	if err := getJSON(ctx, s.client, s.d.url+"/v1/healthz", &before); err != nil {
		return 0, err
	}
	size0, err := fileSize(s.d.store)
	if err != nil {
		return 0, err
	}
	d, err := s.runOp(ctx, bench, tr)
	if err != nil {
		return d, err
	}
	if err := getJSON(ctx, s.client, s.d.url+"/v1/healthz", &after); err != nil {
		return d, err
	}
	size1, err := fileSize(s.d.store)
	if err != nil {
		return d, err
	}
	s.storeHits += after.Store.Hits - before.Store.Hits
	s.storeMisses += after.Store.Misses - before.Store.Misses
	s.storeRecords += after.Store.Records - before.Store.Records
	s.storeBytes += size1 - size0
	return d, nil
}

// runOp runs one session and checks it against the setup's reference.
func (s *sessions) runOp(ctx context.Context, bench string, tr *tracer) (time.Duration, error) {
	axes := s.axes(bench)
	var latency float64
	if s.novel {
		latency = s.in.novelLatency()
		axes = sessionAxes(latency)
	}
	sess, d, err := s.session(ctx, bench, axes, tr)
	if err != nil {
		return d, err
	}
	ref := s.refs[bench]
	sum := sess.summary
	switch {
	case len(sess.results) != 72:
		return d, fmt.Errorf("%d results, want 72", len(sess.results))
	case sum.BaselineTimeS != ref.baseline:
		return d, fmt.Errorf("baseline %v s, cold session said %v s", sum.BaselineTimeS, ref.baseline)
	case s.novel && sum.Computed < 12:
		return d, fmt.Errorf("novel session computed only %d variants", sum.Computed)
	case !s.novel && (!sum.SkippedPrepare || sum.Computed != 0 || sum.FromJournal != 0):
		return d, fmt.Errorf("repeat session not served warm: %+v", sum)
	}
	fresh := pendingCheck{bench: bench, latency: latency, times: make(map[string]float64)}
	for _, r := range sess.results {
		want, stored := ref.times[r.Fingerprint]
		switch {
		case stored && r.TotalTimeS != want:
			return d, fmt.Errorf("%s: %v s, cold session said %v s", r.Variant, r.TotalTimeS, want)
		case !stored && !s.novel:
			return d, fmt.Errorf("%s: not in the stored grid", r.Variant)
		case !stored:
			fresh.times[r.Fingerprint] = r.TotalTimeS
		case r.Provenance != "store":
			return d, fmt.Errorf("%s: stored variant served as %q", r.Variant, r.Provenance)
		}
	}
	if s.novel {
		if len(fresh.times) != 12 {
			return d, fmt.Errorf("%d unseen variants, want 12", len(fresh.times))
		}
		s.pending = append(s.pending, fresh)
	}
	if tr != nil {
		s.traced++
		s.lines += sess.lines
		s.bytes += sess.bytes
		s.computed += sum.Computed
		s.fromStore += sum.FromStore
		if sum.SkippedPrepare {
			s.skipped++
		}
	}
	return d, nil
}

func (s *sessions) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(s.d.cmd.Process.Pid))
}

// finish checks every variant a novel session computed against an
// in-process pipeline.Sweep of the same machines, bit for bit.
func (s *sessions) finish(ctx context.Context) (int, error) {
	byBench := make(map[string][]int)
	for i, p := range s.pending {
		byBench[p.bench] = append(byBench[p.bench], i)
	}
	failed := 0
	for _, b := range benchmarks {
		idx := byBench[b]
		if len(idx) == 0 {
			continue
		}
		run, err := pipeline.PrepareByName(ctx, b, workloads.ScaleTest)
		if err != nil {
			return 0, err
		}
		var lats []float64
		for _, i := range idx {
			lats = append(lats, s.pending[i].latency)
		}
		g := explore.Grid{Base: hw.BGQ(), Axes: []explore.Axis{
			{Param: "mem-bandwidth", Values: sessionBandwidths},
			{Param: "freq-ghz", Values: sessionClocks},
			{Param: "net-latency-us", Values: lats},
		}}
		vs, err := g.Variants()
		if err != nil {
			return 0, err
		}
		evals, err := pipeline.Sweep(ctx, run, vs, pipeline.WithWorkers(1))
		if err != nil {
			return 0, err
		}
		want := make(map[string]float64, len(evals))
		for _, ev := range evals {
			want[ev.Machine.Fingerprint()] = ev.Analysis.TotalTime
		}
		for _, i := range idx {
			for fp, got := range s.pending[i].times {
				if w, ok := want[fp]; !ok || math.Float64bits(w) != math.Float64bits(got) {
					fmt.Fprintf(os.Stderr, "perfbench: %s novel latency %g: daemon %v s, in-process %v s\n", b, s.pending[i].latency, got, w)
					failed++
					break
				}
			}
		}
	}
	return failed, nil
}

func (s *sessions) layers(ctx context.Context, tr *tracer, untracedMS []float64) (map[string]float64, error) {
	n := float64(s.traced)
	sessMS := mean(untracedMS)
	spans := ms(tr.total("skoped.submit")+tr.total("skoped.results")) / n
	vals := map[string]float64{
		"skoped.submit_ms":             ms(tr.total("skoped.submit")) / n,
		"skoped.results_ms":            ms(tr.total("skoped.results")) / n,
		"skoped.lines":                 float64(s.lines) / n,
		"skoped.stream_kb":             float64(s.bytes) / 1024 / n,
		"store.hits":                   float64(s.storeHits) / n,
		"store.misses":                 float64(s.storeMisses) / n,
		"store.records_added":          float64(s.storeRecords) / n,
		"store.kb_added":               float64(s.storeBytes) / 1024 / n,
		"session.computed":             float64(s.computed) / n,
		"session.from_store":           float64(s.fromStore) / n,
		"session.skipped_prepare_frac": float64(s.skipped) / n,
		"trace.span_coverage":          spans / sessMS,
	}
	if s.novel {
		prepMS, err := prepareMS(ctx)
		if err != nil {
			return nil, err
		}
		vals["pipeline.prepare_share"] = prepMS / sessMS
		return vals, nil
	}
	evalUS, prepUS, err := s.timeStoreReads()
	if err != nil {
		return nil, err
	}
	vals["store.get_eval_us"] = evalUS
	vals["store.get_prep_us"] = prepUS
	vals["store.read_share"] = (prepUS + 73*evalUS) / 1e3 / sessMS
	return vals, nil
}

// prepareMS is the time of a cold pipeline.Prepare in this process, the
// median of three per benchmark, averaged over the benchmarks: the most a
// profile cache could remove from a novel session. finish has already
// prepared every benchmark here, so the process is warm.
func prepareMS(ctx context.Context) (float64, error) {
	var perBench []float64
	for _, b := range benchmarks {
		var times []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := pipeline.PrepareByName(ctx, b, workloads.ScaleTest); err != nil {
				return 0, err
			}
			times = append(times, ms(time.Since(start)))
		}
		perBench = append(perBench, median(times))
	}
	return mean(perBench), nil
}

// timeStoreReads stops the daemon and times, in this process, the store
// reads a warm session makes: one prep record and 73 evaluations (72
// variants and the baseline) per benchmark, each checked against the cold
// session's result. It returns the mean time of one GetEval and of one
// GetPrep, in microseconds.
func (s *sessions) timeStoreReads() (evalUS, prepUS float64, err error) {
	s.d.stop()
	st, err := store.Open(s.d.store)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	mode := store.ModeDigest(daemonCriteria, false, 0)
	baseline := hw.BGQ().Fingerprint()
	var evalTime, prepTime time.Duration
	evals, preps := 0, 0
	const passes = 5
	for pass := 0; pass < passes; pass++ {
		for _, b := range benchmarks {
			w, err := workloads.Get(b, workloads.ScaleTest)
			if err != nil {
				return 0, 0, err
			}
			ref := s.refs[b]
			start := time.Now()
			_, ok, err := st.GetPrep(store.PrepDigest(w, false, daemonLimits))
			prepTime += time.Since(start)
			preps++
			if err != nil || !ok {
				return 0, 0, fmt.Errorf("%s: prep record missing (%v)", b, err)
			}
			want := map[string]float64{baseline: ref.baseline}
			for fp, t := range ref.times {
				want[fp] = t
			}
			for fp, t := range want {
				start := time.Now()
				a, ok, err := st.GetEval(ref.layout, fp, mode)
				evalTime += time.Since(start)
				evals++
				if err != nil || !ok {
					return 0, 0, fmt.Errorf("%s: eval record %s missing (%v)", b, fp, err)
				}
				if a.TotalTime != t {
					return 0, 0, fmt.Errorf("%s: record %s holds %v s, the cold session said %v s", b, fp, a.TotalTime, t)
				}
			}
		}
	}
	return float64(evalTime.Nanoseconds()) / 1e3 / float64(evals), float64(prepTime.Nanoseconds()) / 1e3 / float64(preps), nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return do(c, req, http.StatusOK)
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	data, err := get(ctx, c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func postJSON(ctx context.Context, c *http.Client, url string, body []byte, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	data, err := do(c, req, http.StatusCreated)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func do(c *http.Client, req *http.Request, want int) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}
