package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	stdnet "net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"braidio/internal/linkcache"
	"braidio/internal/obs"
	"braidio/internal/rng"
	"braidio/internal/serve"
	"braidio/internal/units"
)

// serve-drift: the daemon's real job. About 100k members register over
// HTTP in 1000-device batches; then a closed loop of waves on one
// connection posts 10% drifted updates (battery halved or restored, so
// the member is re-planned) and 10% jittered ones (within tolerance, so
// the member stays clean), and calls Engine.RunEpoch as the daemon's
// ticker does. A second connection sends open-loop /v1/plan reads at a
// fixed rate, each timed from when it was due.
const (
	serveMembers = 100_000
	serveBatch   = 1000
	// serveBlocks splits the membership into drift and jitter blocks of
	// a tenth each; wave w drifts block 2(w mod 5) and jitters block
	// 2(w mod 5)+1, so one wave never touches a member twice and the
	// expected plan count is exact.
	serveBlocks = 10
	serveWindow = 5
	readsPerSec = 200
	// snapshotEvery is braidio-serve's -snapshot-every default.
	snapshotEvery = 16
	// hubEnergy and the tolerances are braidio-serve's defaults.
	serveHubEnergy = 10
)

// serveInputs are the generated members and the pre-encoded request
// bodies: registration batches and, per wave window and drift parity,
// the wave's update batches (drift and jitter batches interleaved).
type serveInputs struct {
	energy, dist []float64
	register     [][]byte
	waves        [serveWindow][2][][]byte
}

func genServe(seed uint64) (*serveInputs, error) {
	r := rng.New(seed ^ 0x5e7e)
	in := &serveInputs{energy: make([]float64, serveMembers), dist: make([]float64, serveMembers)}
	for i := range in.energy {
		in.energy[i] = 0.2 + 1.8*r.Float64()
		in.dist[i] = 0.3 + 4.2*r.Float64()
	}
	encode := func(lo, hi int, scale float64) ([]byte, error) {
		reqs := make([]serve.DeviceRequest, 0, hi-lo)
		for i := lo; i < hi; i++ {
			reqs = append(reqs, serve.DeviceRequest{ID: memberID(i), EnergyJ: in.energy[i] * scale, DistanceM: in.dist[i]})
		}
		return json.Marshal(reqs)
	}
	for lo := 0; lo < serveMembers; lo += serveBatch {
		b, err := encode(lo, lo+serveBatch, 1)
		if err != nil {
			return nil, err
		}
		in.register = append(in.register, b)
	}
	k := serveMembers / serveBlocks
	for win := 0; win < serveWindow; win++ {
		drift, jitter := 2*win*k, (2*win+1)*k
		for parity := 0; parity < 2; parity++ {
			// Parity 0 halves the battery, parity 1 restores it: both
			// move the ratio 2x past the 5% tolerance. Jitter stays
			// within 1% of the registered battery either way.
			driftScale, jitterScale := 0.5, 1.01
			if parity == 1 {
				driftScale, jitterScale = 1, 0.99
			}
			for off := 0; off < k; off += serveBatch {
				d, err := encode(drift+off, drift+off+serveBatch, driftScale)
				if err != nil {
					return nil, err
				}
				j, err := encode(jitter+off, jitter+off+serveBatch, jitterScale)
				if err != nil {
					return nil, err
				}
				in.waves[win][parity] = append(in.waves[win][parity], d, j)
			}
		}
	}
	return in, nil
}

func memberID(i int) string { return "m" + strconv.Itoa(i) }

// serveRig is one daemon: engine, durable journal and HTTP server on
// loopback, with one client connection for writes and one for reads.
type serveRig struct {
	dir     string
	eng     *serve.Engine
	journal *serve.Journal
	rec     *obs.Recorder
	srv     *http.Server
	done    chan struct{}
	base    string
	writer  *http.Client
	reader  *http.Client
	// tr is the tracer the handler middleware records into; nil while
	// untraced.
	tr      atomic.Pointer[tracer]
	reqID   atomic.Uint64
	digests map[uint64]string
	waves   int
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// middleware records a span per request around the daemon's handler
// while a tracer is installed; the client's span id and request id
// arrive in headers.
func (rig *serveRig) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := rig.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		parent, _ := strconv.ParseUint(r.Header.Get("X-Perfbench-Span"), 10, 64)
		req, _ := strconv.ParseUint(r.Header.Get("X-Perfbench-Req"), 10, 64)
		tr.record(tr.id(), parent, req, "serve.handler"+r.URL.Path, start, time.Now())
	})
}

// startServe opens a fresh journal directory with braidio-serve's
// defaults (-sync epoch, -snapshot-every 16) and serves it on loopback.
func startServe(dir string) (*serveRig, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	policy, err := serve.ParseSyncPolicy("epoch")
	if err != nil {
		return nil, err
	}
	rec := obs.NewRecorder()
	eng, j, _, err := serve.Open(dir, serve.Config{
		RatioTolerance: 0.05, DistanceTolerance: 0.05, Window: 64, HubEnergy: serveHubEnergy,
		QueueCap: 1 << 16, JournalFailStop: true, Rec: rec,
	}, serve.JournalOptions{Sync: policy, SnapshotEvery: snapshotEvery})
	if err != nil {
		return nil, err
	}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		j.Close()
		return nil, err
	}
	rig := &serveRig{dir: dir, eng: eng, journal: j, rec: rec, done: make(chan struct{}),
		base: "http://" + ln.Addr().String(), writer: oneConnClient(), reader: oneConnClient(),
		digests: make(map[uint64]string)}
	rig.srv = &http.Server{
		Handler:           rig.middleware((&serve.Server{Engine: eng, Rec: rec}).Handler()),
		ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 30 * time.Second,
		WriteTimeout: 2 * time.Minute, IdleTimeout: 2 * time.Minute,
	}
	go func() {
		rig.srv.Serve(ln)
		close(rig.done)
	}()
	return rig, nil
}

// stop shuts the server down, waits for it, and closes the journal.
func (rig *serveRig) stop() error {
	rig.srv.Close()
	<-rig.done
	rig.writer.CloseIdleConnections()
	rig.reader.CloseIdleConnections()
	return rig.journal.Close()
}

// do sends one request and reads the whole response; ok means the
// status was want. A 503 (shed) is reported separately.
func (rig *serveRig) do(c *http.Client, method, path string, body []byte, want int, span, req uint64) (respBody []byte, status int, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, rig.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if span != 0 {
		hr.Header.Set("X-Perfbench-Span", strconv.FormatUint(span, 10))
		hr.Header.Set("X-Perfbench-Req", strconv.FormatUint(req, 10))
	}
	resp, err := c.Do(hr)
	if err != nil {
		return nil, 0, err
	}
	respBody, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(respBody))
	}
	return respBody, resp.StatusCode, err
}

// epoch runs Engine.RunEpoch as the daemon's ticker does and records
// the digest for the post-run journal verification.
func (rig *serveRig) epoch() (serve.EpochResult, error) {
	res, err := rig.eng.RunEpoch()
	if err == nil {
		rig.digests[res.Epoch] = res.Digest
	}
	return res, err
}

// register posts every registration batch, running an epoch whenever
// the next batch could overflow the admission queue and once at the
// end: the cold bulk plan.
func (rig *serveRig) register(in *serveInputs) error {
	queueCap := rig.eng.Config().QueueCap
	pending, planned := 0, 0
	flush := func() error {
		res, err := rig.epoch()
		if err != nil {
			return fmt.Errorf("registration epoch: %w", err)
		}
		if res.Planned != pending {
			return fmt.Errorf("registration epoch %d planned %d members, want %d", res.Epoch, res.Planned, pending)
		}
		planned += res.Planned
		pending = 0
		return nil
	}
	for _, body := range in.register {
		if _, _, err := rig.do(rig.writer, http.MethodPost, "/v1/register", body, http.StatusAccepted, 0, 0); err != nil {
			return err
		}
		pending += serveBatch
		if pending+serveBatch > queueCap {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if planned != serveMembers {
		return fmt.Errorf("registration planned %d members, want %d", planned, serveMembers)
	}
	return nil
}

// setupServe starts a daemon and registers the membership
// setupRepeats times, keeping the last daemon; it returns the set-up
// times (registration plus the cold bulk plan).
func setupServe(in *serveInputs) (rig *serveRig, times []float64, err error) {
	dir := filepath.Join(buildDir, fmt.Sprintf("serve-journal-%d", os.Getpid()))
	times, err = timeSetups(func() error {
		if rig != nil {
			if err := rig.stop(); err != nil {
				return err
			}
		}
		if rig, err = startServe(dir); err != nil {
			return err
		}
		return rig.register(in)
	})
	if err != nil {
		if rig != nil {
			rig.stop()
		}
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return rig, times, nil
}

// readStats is the open-loop reader's record of one phase.
type readStats struct {
	latency, lag []float64 // ms, from each read's due time
	attempted    int
	failed       int
	shed         int
	problems     []string
}

// readLoop sends /v1/plan reads at readsPerSec until stop closes, each
// timed from when it was due, so a stall also delays the reads queued
// behind it. Each read's samples go to the phase *phase selects when
// the read is sent.
func (rig *serveRig) readLoop(seed uint64, stop <-chan struct{}, phases []*readStats, phase *atomic.Int32, wg *sync.WaitGroup) {
	defer wg.Done()
	r := rng.New(seed ^ 0x4ead)
	interval := time.Second / readsPerSec
	t0 := time.Now()
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		st := phases[phase.Load()]
		id := memberID(r.Intn(serveMembers))
		tr := rig.tr.Load()
		span, req := tr.id(), rig.reqID.Add(1)
		start := time.Now()
		body, status, err := rig.do(rig.reader, http.MethodGet, "/v1/plan?id="+id, nil, http.StatusOK, span, req)
		end := time.Now()
		tr.record(span, 0, req, "client.plan", start, end)
		st.attempted++
		st.lag = append(st.lag, ms(start.Sub(due)))
		if err == nil {
			err = checkPlan(body)
		}
		if err != nil {
			st.failed++
			if status == http.StatusServiceUnavailable {
				st.shed++
			}
			if len(st.problems) < 5 {
				st.problems = append(st.problems, fmt.Sprintf("read %s: %v", id, err))
			}
			continue
		}
		st.latency = append(st.latency, ms(end.Sub(due)))
	}
}

// checkPlan validates a /v1/plan response body.
func checkPlan(body []byte) error {
	var p serve.Plan
	if err := json.Unmarshal(body, &p); err != nil {
		return err
	}
	if p.Epoch == 0 || len(p.Modes) == 0 || len(p.Modes) != len(p.Fractions) || len(p.Blocks) != len(p.Modes) {
		return fmt.Errorf("malformed plan %+v", p)
	}
	sum := 0.0
	for _, f := range p.Fractions {
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("plan fractions sum to %v", sum)
	}
	return nil
}

// waveStats is the write loop's record of a set of waves.
type waveStats struct {
	waves, updates int
	busy           time.Duration
	wall           []float64 // per-wave wall time, ms
	visible        []weighted
	counts         layerCounts
}

// journalSizes maps each journal segment to its current size.
func journalSizes(dir string) map[string]int64 {
	out := make(map[string]int64)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, e := range ents {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			out[e.Name()] = info.Size()
		}
	}
	return out
}

// wave posts one wave of updates on the write connection and runs the
// epoch that makes them visible, traced when tr is non-nil.
func (rig *serveRig) wave(o *outcome, in *serveInputs, tr *tracer, ws *waveStats) {
	k := serveMembers / serveBlocks
	w := rig.waves
	rig.waves++
	win, parity := w%serveWindow, (w/serveWindow)%2
	rig.tr.Store(tr)
	s0, c0 := rig.rec.Snapshot(), linkcache.Snapshot()
	waveSpan := tr.id()
	starts := make([]time.Time, 0, 2*k/serveBatch)
	t0 := time.Now()
	for _, body := range in.waves[win][parity] {
		span, req := tr.id(), rig.reqID.Add(1)
		ps := time.Now()
		_, status, err := rig.do(rig.writer, http.MethodPost, "/v1/update", body, http.StatusAccepted, span, req)
		tr.record(span, waveSpan, req, "client.update", ps, time.Now())
		o.attempted++
		if err != nil {
			o.failed++
			o.check(status != http.StatusServiceUnavailable, "update shed (503) in wave %d", w)
			o.check(false, "wave %d update: %v", w, err)
		}
		starts = append(starts, ps)
	}
	es := time.Now()
	res, err := rig.epoch()
	ee := time.Now()
	tr.record(tr.id(), waveSpan, uint64(w), "serve.epoch", es, ee)
	tr.record(waveSpan, 0, uint64(w), "wave", t0, ee)
	rig.tr.Store(nil)
	ws.counts.add(s0, rig.rec.Snapshot(), c0, linkcache.Snapshot())
	o.attempted++
	if err != nil {
		o.failed++
		o.check(false, "wave %d epoch: %v", w, err)
	} else if res.Planned != k || res.Clean != serveMembers-k || res.Members != serveMembers || res.Applied != 2*k {
		o.failed++
		o.check(false, "wave %d epoch %d: planned %d clean %d members %d applied %d, want %d/%d/%d/%d",
			w, res.Epoch, res.Planned, res.Clean, res.Members, res.Applied, k, serveMembers-k, serveMembers, 2*k)
	}
	for _, ps := range starts {
		ws.visible = append(ws.visible, weighted{ms(ee.Sub(ps)), serveBatch})
	}
	ws.waves++
	ws.updates += 2 * k
	ws.busy += ee.Sub(t0)
	ws.wall = append(ws.wall, ms(ee.Sub(t0)))
}

// probeWave runs the phy and core probes on the drifted members of the
// wave just run, outside the timed wave.
func (rig *serveRig) probeWave(in *serveInputs, tr *tracer, probes *linkProbes) {
	k := serveMembers / serveBlocks
	w := rig.waves - 1
	win, parity := w%serveWindow, (w/serveWindow)%2
	lo := 2 * win * k
	scale := 0.5
	if parity == 1 {
		scale = 1
	}
	dists := make([]units.Meter, serveBatch)
	e2 := make([]units.Joule, serveBatch)
	for i := range dists {
		dists[i] = units.Meter(in.dist[lo+i])
		e2[i] = units.Joule(in.energy[lo+i] * scale)
	}
	probes.probe(tr, dists, serveHubEnergy, e2)
}

// verifyJournal re-verifies the journal directory with serve.VerifyDir
// and compares every replayed epoch digest with the one the run saw.
func verifyJournal(o *outcome, rig *serveRig) {
	stats, err := serve.VerifyDir(rig.dir)
	if err != nil {
		o.check(false, "journal verification: %v", err)
		return
	}
	o.check(stats.Matched == stats.Epochs && stats.Epochs > 0, "journal verification matched %d of %d epochs", stats.Matched, stats.Epochs)
	for i, dg := range stats.Digests {
		epoch := stats.SnapshotEpoch + 1 + uint64(i)
		o.check(rig.digests[epoch] == dg, "journal epoch %d replays to digest %s, the run saw %s", epoch, dg, rig.digests[epoch])
	}
	fmt.Printf("serve-drift: journal re-verified %d epochs after the snapshot at epoch %d\n", stats.Matched, stats.SnapshotEpoch)
}

// addReads folds one phase's reads into the outcome's counts.
func addReads(o *outcome, rs *readStats) {
	o.attempted += rs.attempted
	o.failed += rs.failed
	o.check(rs.shed == 0, "%d plan reads were shed (503)", rs.shed)
	for _, p := range rs.problems {
		o.check(false, "%s", p)
	}
}

func runServeDrift(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	in, err := genServe(cfg.seed)
	if err != nil {
		return nil, err
	}
	rig, setups, err := setupServe(in)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(rig.dir)
	fmt.Printf("serve-drift: %d members registered in %d-device batches; set-ups %.3v s\n", serveMembers, serveBatch, setups)

	phases := []*readStats{{}, {}}
	var phase atomic.Int32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go rig.readLoop(cfg.seed, stop, phases, &phase, &wg)

	// Untraced, every wave is measured alike. Traced, waves alternate
	// untraced and traced so both see the same host conditions; reads
	// and runtime counters are taken from the untraced waves, and the
	// journal is measured across all of them.
	var tr *tracer
	var initial, seen map[string]int64
	if cfg.trace {
		tr = newTracer()
		initial, seen = journalSizes(rig.dir), make(map[string]int64)
	}
	var base, traced waveStats
	var rt runtimeDelta
	var probes linkProbes
	start := time.Now()
	for i := 0; base.waves == 0 || (tr != nil && traced.waves == 0) || time.Since(start) < cfg.seconds; i++ {
		if tr != nil && i%2 == 1 {
			phase.Store(1)
			rig.wave(o, in, tr, &traced)
			rig.probeWave(in, tr, &probes)
		} else {
			phase.Store(0)
			r0 := sampleRuntime()
			rig.wave(o, in, nil, &base)
			rt.add(since(r0, sampleRuntime()))
		}
		if tr != nil {
			for name, size := range journalSizes(rig.dir) {
				seen[name] = max(seen[name], size)
			}
		}
	}
	// A run that ends on a snapshot epoch leaves an empty journal tail;
	// one more (unmeasured, still checked) wave gives VerifyDir epochs
	// to replay.
	if rig.eng.Stats().Epoch%snapshotEvery == 0 {
		rig.wave(o, in, nil, &waveStats{})
	}
	close(stop)
	wg.Wait()
	for _, rs := range phases {
		addReads(o, rs)
	}
	heap := liveHeapMB()
	if err := rig.stop(); err != nil {
		o.check(false, "closing the journal: %v", err)
	}
	o.check(rig.rec.ServeSheds.Load() == 0, "%d operations shed", rig.rec.ServeSheds.Load())
	verifyJournal(o, rig)

	reads := phases[0]
	readP50 := quantile(reads.latency, 0.5)
	readP99 := quantile(reads.latency, 0.99)
	if !cfg.trace {
		rate := float64(base.updates) / base.busy.Seconds()
		o.set("setup_s", median(setups), len(setups))
		o.set("throughput_per_s", rate, base.updates)
		o.set("visible_p50_ms", weightedQuantile(base.visible, 0.5), base.updates)
		o.set("live_heap_mb", heap, 1)
		o.alias("updates_per_s", rate, "1/s", base.updates)
		o.alias("visible_p99_ms", weightedQuantile(base.visible, 0.99), "ms", base.updates)
		o.alias("read_p99_ms", readP99, "ms", len(reads.latency))
		o.alias("read_p50_ms", readP50, "ms", len(reads.latency))
		o.alias("cpu_us_per_update", float64(rt.cpu)/1e3/float64(base.updates), "us", base.updates)
		o.alias("failed_share", share(o.failed, o.attempted), "ratio", o.attempted)
		fmt.Printf("serve-drift: %d waves, %d epochs in all\n", base.waves, len(rig.digests))
		return o, nil
	}

	var journalBytes int64
	for name, size := range seen {
		journalBytes += size - initial[name]
	}
	all := base.updates + traced.updates
	handler := tr.durations("serve.handler/v1/update")
	epochs := tr.durations("serve.epoch")
	st := rig.eng.Stats()
	c := traced.counts
	memberEpochs := uint64(traced.waves) * serveMembers
	o.set("serve.update_handler_ms", quantile(handler, 0.5), len(handler))
	o.set("serve.epoch_ms_p50", quantile(epochs, 0.5), len(epochs))
	o.set("serve.epoch_ms_max", quantile(epochs, 1), len(epochs))
	o.set("serve.plan_ms_p50", st.PlanP50Millis, int(st.Epoch))
	o.set("serve.apply_ms_p50", st.ApplyP50Millis, int(st.Epoch))
	o.set("serve.plans_per_update", ratio(c.servePlans, c.serveUpdates), int(c.serveUpdates))
	o.set("serve.journal_bytes_per_op", float64(journalBytes)/float64(all), all)
	o.set("serve.snapshots", float64(base.counts.snapshots+c.snapshots), base.waves+traced.waves)
	o.set("serve.visible_p99_ms", weightedQuantile(base.visible, 0.99), base.updates)
	o.set("serve.read_p50_ms", readP50, len(reads.latency))
	o.set("serve.read_p99_ms", readP99, len(reads.latency))
	o.set("serve.read_lag_ms_p99", quantile(reads.lag, 0.99), len(reads.lag))
	probes.set(o)
	o.set("linkcache.misses_per_member_round", ratio(c.misses, memberEpochs), int(memberEpochs))
	o.set("linkcache.evictions", float64(c.evictions)/float64(traced.waves), traced.waves)
	setSolverLayers(o, c, memberEpochs)
	setAbsent(o, simLayer...)
	setAbsent(o, netLayer...)
	setAbsent(o, "hub.member_rounds", "hub.replans")
	setRuntimeLayers(o, rt, uint64(base.updates))
	o.set("trace.overhead_share", median(traced.wall)/median(base.wall)-1, base.waves+traced.waves)
	return o, tr.report(tracePath("serve-drift", cfg.seed))
}
