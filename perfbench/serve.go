package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	goruntime "runtime"
	"strings"
	"sync"
	"time"

	"rfly/internal/federation"
	"rfly/internal/fleet"
	"rfly/internal/obs"
	"rfly/internal/runtime"
)

// openLoop is a served workload: seeded arrivals at one fixed rate
// against in-process servers on loopback. Independent tenants make an
// open loop — a slow server gets the same offered load, and its queue
// grows.
type openLoop struct {
	rps     float64
	limitMs float64
	// federated puts a federation.Coordinator in front of two one-shard
	// fleet nodes; otherwise requests go to one two-shard node.
	federated bool
	sorties   int // fleet.Config.Sorties
	// sarEvery: one request in sarEvery is an exclusive, explicitly
	// seeded SAR request (1 makes every request one).
	sarEvery int
	// traceEvery: one completed request in traceEvery also fetches its
	// trace in an untraced run (0: never). Traced runs fetch every trace.
	traceEvery int
	pollEvery  time.Duration
	// regions are the fleet.Regions requests target.
	regions []string
}

// serveOpen offers 20 rps, about 20% of the capacity (~100 rps) measured
// on a 2-vCPU host. Its missions last ~15-20 ms. With Poisson arrivals a
// third of them overlapped another in flight, and the tail was made of
// those, the moments both shards and the HTTP goroutines want a CPU at
// once: a busy neighbour on one vCPU moved it by 0.29 of its median over
// five seeds (by half at 40 rps), where fig6_rebuild's moved 0.15. Paced
// (see schedule), the tail is the slowest kinds of request and moved 0.16.
var serveOpen = openLoop{
	rps: 20, limitMs: 250, sorties: 1, sarEvery: 4, traceEvery: 8,
	regions: []string{"corridor-east", "corridor-west", "dock"},
}

// federateOpen's two regions are owned one by each node (see dialNamed),
// so the nodes share the load. Paced, its requests are at least 250 ms
// apart, longer than a mission, so a one-shard node never queues one
// mission behind another and the two nodes seldom fly at once. With Poisson
// arrivals at 2 rps, ~10-20% of requests queued, so the p80 tail sat on
// the edge between queued and unqueued requests and moved by a third
// between runs as the host's speed changed that share. The coordinator
// learns a mission finished only at its next poll, so client latency moves
// in steps of PollEvery: at 50 ms a host a little slower pushed the tail a
// whole step (~50 ms of ~120 ms) between runs, while 10 ms steps keep it
// within the mission time's own spread.
var federateOpen = openLoop{
	rps: 2, limitMs: 400, federated: true, sorties: 3, sarEvery: 1,
	pollEvery: 10 * time.Millisecond,
	regions:   []string{"corridor-east", "dock"},
}

func (o openLoop) why() string {
	if o.federated {
		return fmt.Sprintf("coordinator + 2 one-shard nodes, 3-sortie SAR missions over one region per node, open loop %.0f rps paced, %.0f ms limit, poll %v; the only workload through route, forward, replication",
			o.rps, o.limitMs, o.pollEvery)
	}
	return fmt.Sprintf("fleet node with 2 shards, open loop %.0f rps paced (capacity ~100), %.0f ms limit, 1 in %d SAR on its own plan, 1 in %d trace fetch; admission, coalescing, HTTP, trace export on the latency path",
		o.rps, o.limitMs, o.sarEvery, o.traceEvery)
}

// sarPoints is the aperture of every served SAR request, per sortie.
const sarPoints = 8

// channelPlans are the two channel plans inventory requests use; only
// requests on one plan coalesce.
var channelPlans = []float64{fleet.DefaultChannelHz, 910.75e6}

// sarChannelHz is the channel plan of every SAR request, one no
// inventory request uses. fleet coalesces a queued Exclusive request
// into the batch of a non-exclusive head on the same region and plan
// (see coalescesExclusive), which would make a SAR request's outcome
// depend on what else was queued; on a plan of their own, exclusive
// requests only ever meet each other, and fly alone.
const sarChannelHz = 920.25e6

// arrival is one scheduled request.
type arrival struct {
	at  time.Duration // offset from the start of the timed phase
	req fleet.SubmitRequest
	sar bool
}

// minServed is the fewest requests a served run offers, stretching a
// short run at a low rate: the tail rule needs more than ten samples.
const minServed = 24

// schedule draws the arrival times and request mix from seed alone. The
// arrivals are paced: one in each 1/rps slot, at a drawn offset in the
// slot's middle half, so no two are closer than half a slot and every seed
// offers the same number of requests; only their timing and mix vary.
// On a 2-vCPU host, requests that overlap make a tail that a neighbour's
// load moves between runs far more than the work itself (see serveOpen).
// Each run of sarEvery consecutive requests holds exactly one SAR
// request, at a drawn position, so every stretch of the run carries the
// same share of the slow kind.
func (o openLoop) schedule(seed uint64, seconds float64) []arrival {
	r := rand.New(rand.NewPCG(seed, 0x6f70656e))
	seconds = max(seconds, minServed/o.rps)
	out := make([]arrival, int(math.Round(o.rps*seconds)))
	for i := range out {
		out[i].at = time.Duration((float64(i) + 0.25 + 0.5*r.Float64()) / o.rps * float64(time.Second))
	}
	sarAt := 0
	for i := range out {
		a := &out[i]
		if i%o.sarEvery == 0 {
			sarAt = i + r.IntN(o.sarEvery)
		}
		region := fleet.Regions[o.regions[r.IntN(len(o.regions))]]
		a.sar = i == sarAt
		ntags := 1 + r.IntN(4)
		if a.sar {
			ntags = 1 + r.IntN(2)
			a.req.SARPoints = sarPoints
			a.req.Exclusive = true
			a.req.Seed = r.Uint64() | 1
			a.req.ChannelHz = sarChannelHz
		} else {
			a.req.ChannelHz = channelPlans[r.IntN(len(channelPlans))]
		}
		a.req.Region = region.Name
		for j := 0; j < ntags; j++ {
			// Tags sit past the relay's hover point, where the paper's
			// relay reads them; tag 0 is the SAR target.
			a.req.Tags = append(a.req.Tags, fleet.TagInput{
				ID: uint16(j + 1),
				X:  region.RelayPos.X + 1 + 1.5*r.Float64(),
				Y:  region.RelayPos.Y + (r.Float64()-0.5)*min(region.CorridorWidthM, 2)/2,
				Z:  1.0,
			})
		}
	}
	return out
}

// stack is the servers a served workload runs against.
type stack struct {
	base    string // where requests go
	nodes   []string
	scheds  []*fleet.Scheduler
	servers []*http.Server
	coord   *federation.Coordinator
}

// done is the in-process completion signal for a submitted id.
func (s *stack) done(id string) <-chan struct{} {
	if s.coord != nil {
		return s.coord.Done(id)
	}
	return s.scheds[0].Done(id)
}

func (s *stack) close() {
	if s.coord != nil {
		s.coord.Stop()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, sc := range s.scheds {
		_ = sc.Stop(ctx) // a timed-out drain only leaves sorties to the process exit
	}
}

// Federated nodes are named, not addressed by their ephemeral ports: the
// coordinator's ring hashes node URLs to place regions, so fixed names
// give every run the same placement: corridor-east and corridor-west on
// node-1, dock on node-0. dialNamed maps the names to this run's listeners and dials
// nothing but loopback.
var (
	namedMu    sync.Mutex
	namedAddrs = map[string]string{}
)

func dialNamed(ctx context.Context, network, addr string) (net.Conn, error) {
	namedMu.Lock()
	real, ok := namedAddrs[addr]
	namedMu.Unlock()
	if ok {
		addr = real
	}
	if host, _, err := net.SplitHostPort(addr); err != nil || host != "127.0.0.1" {
		return nil, fmt.Errorf("perfbench: refusing to dial %q: only loopback listeners are known", addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, network, addr)
}

func init() {
	// The coordinator's node clients use the default transport.
	http.DefaultTransport.(*http.Transport).DialContext = dialNamed
}

func serveHTTP(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on close
	return srv, "http://" + ln.Addr().String(), nil
}

func (o openLoop) start() (*stack, error) {
	st := &stack{}
	shards, nodes := 2, 1
	if o.federated {
		shards, nodes = 1, 2
	}
	for i := 0; i < nodes; i++ {
		sc, err := fleet.New(fleet.Config{Shards: shards, Sorties: o.sorties})
		if err != nil {
			st.close()
			return nil, err
		}
		sc.Start()
		st.scheds = append(st.scheds, sc)
		srv, url, err := serveHTTP(fleet.NewHandler(sc))
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		if o.federated {
			name := fmt.Sprintf("node-%d.bench:80", i)
			namedMu.Lock()
			namedAddrs[name] = strings.TrimPrefix(url, "http://")
			namedMu.Unlock()
			url = "http://" + name
		}
		st.nodes = append(st.nodes, url)
	}
	st.base = st.nodes[0]
	if o.federated {
		coord, err := federation.New(federation.Config{
			Nodes: st.nodes, Seed: 1, PollEvery: o.pollEvery,
			// Sorties saturate the CPU; a slow heartbeat answer must
			// read as load, not as a dead node.
			Heartbeat: 250 * time.Millisecond, RequestTimeout: 30 * time.Second,
		})
		if err != nil {
			st.close()
			return nil, err
		}
		coord.Start()
		st.coord = coord
		srv, url, err := serveHTTP(federation.NewHandler(coord))
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		st.base = url
	}
	return st, nil
}

// client is the generator's HTTP side: at most nproc connections.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext:     dialNamed,
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
		},
	}}
}

// call does one request, decoding a 2xx JSON body into out and returning
// the body size.
func (c *client) call(ctx context.Context, method, url string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return len(b), fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return len(b), json.Unmarshal(b, out)
}

// served is one request's record.
type served struct {
	a          arrival
	id         string
	sent, read time.Time
	ok         bool
	err        error
	out        *fleet.Outcome
	waitMs     float64
	runMs      float64
	batch      int
	traceMs    float64
	traceKB    float64
	spans      []obs.SpanRecord
}

// job is one unit of generator work: a submit, or (after the in-process
// completion signal) the result read.
type job struct {
	rec    *served
	submit bool
}

// drive runs the schedule against st from one scheduling goroutine (the
// caller) and nproc request workers.
func (o openLoop) drive(ctx context.Context, st *stack, arrs []arrival, traced bool) ([]*served, time.Time) {
	// A mission that never finishes must not hang the run.
	ctx, cancel := context.WithTimeout(ctx, arrs[len(arrs)-1].at+60*time.Second)
	defer cancel()
	conns := goruntime.NumCPU()
	cl := newClient(conns)
	defer cl.hc.CloseIdleConnections()
	recs := make([]*served, len(arrs))
	// Both queues are sized to the number of sends, so no send blocks.
	submits := make(chan job, len(arrs))
	results := make(chan job, len(arrs))
	var outstanding sync.WaitGroup
	var workers sync.WaitGroup
	quit := make(chan struct{})
	for w := 0; w < conns; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				var j job
				select {
				case j = <-results:
				case j = <-submits:
				case <-quit:
					return
				}
				if j.submit {
					o.submit(ctx, cl, st, j.rec, results, &outstanding)
				} else {
					o.collect(ctx, cl, st, j.rec, traced)
					outstanding.Done()
				}
			}
		}()
	}
	begin := time.Now()
	for i := range arrs {
		recs[i] = &served{a: arrs[i]}
		if d := time.Until(begin.Add(arrs[i].at)); d > 0 {
			time.Sleep(d)
		}
		outstanding.Add(1)
		submits <- job{rec: recs[i], submit: true}
	}
	outstanding.Wait()
	close(quit)
	workers.Wait()
	return recs, begin
}

// submit posts one request and arranges for its result read once the
// server signals completion in process.
func (o openLoop) submit(ctx context.Context, cl *client, st *stack, rec *served, results chan<- job, outstanding *sync.WaitGroup) {
	rec.sent = time.Now()
	var sr fleet.SubmitResponse
	if _, err := cl.call(ctx, http.MethodPost, st.base+"/v1/missions", rec.a.req, &sr); err != nil {
		rec.err = err
		outstanding.Done()
		return
	}
	rec.id = sr.ID
	done := st.done(sr.ID)
	go func() {
		select {
		case <-done:
		case <-ctx.Done():
		}
		results <- job{rec: rec}
	}()
}

// collect reads a finished request's result (and, when chosen, its
// trace).
func (o openLoop) collect(ctx context.Context, cl *client, st *stack, rec *served, traced bool) {
	node, remote := st.base, rec.id
	if o.federated {
		var v federation.MissionView
		_, rec.err = cl.call(ctx, http.MethodGet, st.base+"/v1/missions/"+rec.id, nil, &v)
		rec.read = time.Now()
		if rec.err != nil {
			return
		}
		rec.ok, rec.out = v.Status == fleet.StatusDone, v.Outcome
		if !rec.ok {
			rec.err = fmt.Errorf("mission %s: %s %s", rec.id, v.Status, v.Err)
			return
		}
		// The node's own record carries its wait and run times.
		node, remote = v.Node, v.RemoteID
		var mr fleet.MissionResponse
		if _, err := cl.call(ctx, http.MethodGet, node+"/v1/missions/"+remote, nil, &mr); err != nil {
			rec.ok, rec.err = false, err
			return
		}
		rec.waitMs, rec.runMs, rec.batch = mr.WaitMs, mr.RunMs, mr.BatchSize
	} else {
		var mr fleet.MissionResponse
		_, rec.err = cl.call(ctx, http.MethodGet, st.base+"/v1/missions/"+rec.id, nil, &mr)
		rec.read = time.Now()
		if rec.err != nil {
			return
		}
		rec.ok, rec.out = mr.Status == fleet.StatusDone, mr.Outcome
		if !rec.ok {
			rec.err = fmt.Errorf("mission %s: %s %s", rec.id, mr.Status, mr.Error)
			return
		}
		rec.waitMs, rec.runMs, rec.batch = mr.WaitMs, mr.RunMs, mr.BatchSize
	}
	if rec.a.req.Exclusive && rec.batch > 1 {
		// The request's outcome is a slice of another tenant's mission.
		rec.ok = false
		rec.err = fmt.Errorf("exclusive request %s flew in a batch of %d", rec.id, rec.batch)
		return
	}
	fetch := traced
	if !traced && o.traceEvery > 0 {
		fetch = rand.New(rand.NewPCG(uint64(rec.a.at), 7)).IntN(o.traceEvery) == 0
	}
	if fetch {
		var tr fleet.TraceResponse
		t := time.Now()
		n, err := cl.call(ctx, http.MethodGet, node+"/v1/missions/"+remote+"/trace", nil, &tr)
		if err != nil {
			rec.ok, rec.err = false, err
			return
		}
		rec.traceMs, rec.traceKB = ms(time.Since(t)), float64(n)/1024
		if traced && leads(tr.Spans, remote) {
			rec.spans = tr.Spans
		}
	}
}

// leads reports whether id is the first admitted member of the batch the
// trace records, so a batch's shared trace is counted once.
func leads(spans []obs.SpanRecord, id string) bool {
	var first obs.SpanRecord
	found := false
	for _, s := range spans {
		if s.Name == "fleet.admit" && (!found || s.ID < first.ID) {
			first, found = s, true
		}
	}
	if !found {
		return false
	}
	a, ok := first.Attr("mission")
	return ok && a.Str == id
}

// nodeMetrics sums the fleet /metrics documents of every node.
type nodeMetrics struct {
	completed, batches, batched, rejected int64
	batchSum, busyS, uptimeS              float64
	shards                                int
	counters                              map[string]int64
}

func (o openLoop) scrape(ctx context.Context, cl *client, st *stack) (nodeMetrics, federation.MetricsSnapshot, error) {
	nm := nodeMetrics{counters: map[string]int64{}}
	for _, n := range st.nodes {
		var m fleet.MetricsResponse
		if _, err := cl.call(ctx, http.MethodGet, n+"/metrics", nil, &m); err != nil {
			return nm, federation.MetricsSnapshot{}, err
		}
		nm.completed += m.Completed
		nm.batches += m.Batches
		nm.batched += m.BatchedRequests
		nm.rejected += m.Rejected
		nm.batchSum += m.MeanBatchSize * float64(m.Batches)
		for _, s := range m.ShardBusyS {
			nm.busyS += s
		}
		nm.uptimeS += m.UptimeS * float64(m.Shards)
		nm.shards += m.Shards
		// The obs registry is process-wide: every node reports the same
		// counters, so the last one read stands.
		nm.counters = counterSnap(m.Obs)
	}
	var fm federation.MetricsSnapshot
	if st.coord != nil {
		if _, err := cl.call(ctx, http.MethodGet, st.base+"/metrics", nil, &fm); err != nil {
			return nm, fm, err
		}
	}
	return nm, fm, nil
}

// run is a served workload.
func (o openLoop) run(ctx context.Context, seed uint64, seconds float64, traced bool) (*report, error) {
	rep := newReport()
	cl := newClient(1)
	defer cl.hc.CloseIdleConnections()

	// Set-up: servers started and one warm-up request flown through them
	// (filter-design cache, IQ pools, connections); repeated so setup_s is
	// a median, and the last stack is kept.
	var st *stack
	var setups []float64
	var warm []arrival
	for _, a := range o.schedule(^seed, 60) {
		if a.sar && len(warm) < setupRepeats {
			a.at = 0
			warm = append(warm, a)
		}
	}
	for k := 0; k < setupRepeats; k++ {
		t := time.Now()
		s, err := o.start()
		if err != nil {
			return nil, err
		}
		recs, _ := o.drive(ctx, s, warm[k:k+1], false)
		if !recs[0].ok {
			s.close()
			return nil, fmt.Errorf("warm-up request: %v", recs[0].err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if k < setupRepeats-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	rep.e2e["setup_s"] = median(setups)

	arrs := o.schedule(seed, seconds)
	nm0, fm0, err := o.scrape(ctx, cl, st)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	recs, begin := o.drive(ctx, st, arrs, traced)
	goruntime.ReadMemStats(&ms1)
	nm1, fm1, err := o.scrape(ctx, cl, st)
	if err != nil {
		return nil, err
	}

	var (
		lats, runs, waits, https, lags []float64
		traceMs, traceKB               []float64
		good, reads, tries, sars       int
		allReads, allTries             int
		locErrs                        []float64
		spanRows                       []map[string]float64
		last                           = begin
	)
	for _, r := range recs {
		rep.attempted++
		if !r.sent.IsZero() {
			lags = append(lags, ms(r.sent.Sub(begin.Add(r.a.at))))
		}
		if !r.ok {
			rep.fail(r.err)
			continue
		}
		lat := ms(r.read.Sub(begin.Add(r.a.at)))
		lats = append(lats, lat)
		runs = append(runs, r.runMs)
		waits = append(waits, r.waitMs)
		https = append(https, lat-r.waitMs-r.runMs)
		allReads += r.out.Reads
		allTries += r.out.Attempts
		if lat <= o.limitMs {
			good++
		}
		if r.read.After(last) {
			last = r.read
		}
		if r.traceKB > 0 {
			traceMs = append(traceMs, r.traceMs)
			traceKB = append(traceKB, r.traceKB)
		}
		if r.spans != nil {
			row := map[string]float64{}
			ag := spanLayers(row, r.spans)
			row["runtime.sortie_ms"] = ag["runtime.sortie"].durMs()
			row["runtime.checkpoint_ms"] = ag["runtime.checkpoint"].durMs()
			spanRows = append(spanRows, row)
		}
		if r.a.sar {
			// Exclusive, explicitly seeded requests fly the same mission
			// whatever else is in flight, so these repeat for one seed.
			sars++
			reads += r.out.Reads
			tries += r.out.Attempts
			if r.out.LocOK {
				t := r.a.req.Tags[0]
				locErrs = append(locErrs, math.Hypot(r.out.LocX-t.X, r.out.LocY-t.Y))
			}
		}
	}
	n := float64(len(lats))
	if n > 0 {
		rep.e2e["missions_per_s"] = n / last.Sub(begin).Seconds()
	}
	rep.setTiming("mission", runs)
	rep.setTiming("latency", lats)
	rep.e2e["goodput_pct"] = pct(float64(good), float64(rep.attempted))
	rep.allocs(ms0, ms1, n)
	rep.e2e["read_rate_pct"] = pct(float64(reads), float64(tries))
	rep.e2e["loc_err_m"] = mean(locErrs)
	if err := o.twinCheck(ctx, st, arrs); err != nil {
		rep.check(err.Error())
	}
	if !o.federated {
		coalesced, err := coalescesExclusive(ctx)
		if err != nil {
			return nil, err
		}
		rep.layers["fleet.exclusive_coalesced"] = 0
		if coalesced {
			rep.layers["fleet.exclusive_coalesced"] = 1
			rep.note("known fleet defect: an Exclusive request queued behind a non-exclusive one on the same region and channel plan flew in its batch (SAR requests use a plan of their own, so the load does not meet it)")
		}
	}

	if traced {
		// Means, not medians: most batches are inventory-only, and a
		// per-mission mean keeps the SAR stages visible and additive.
		statRows(rep.layers, spanRows, []string{"runtime.sortie_ms", "runtime.checkpoint_ms",
			"runtime.sortie.self_ms", "sim.read.count", "sim.read.self_ms", "sim.sar_collect.self_ms",
			"relay.relock.self_ms", "loc.stream.add.self_ms", "loc.stream.snapshot.self_ms",
			"loc.stripe.busy_ms", "capture.append.self_us", "obs.spans_per_mission",
			"trace.sortie_coverage_pct"}, mean)
		rep.layers["obs.trace_fetch_ms"] = median(traceMs)
		rep.layers["obs.trace_kb"] = median(traceKB)
		rep.layers["fleet.wait_p50_ms"] = median(waits)
		if t, ok := tailOf(waits); ok {
			rep.layers["fleet.wait_tail_ms"] = t.Value
		}
		rep.layers["fleet.run_ms"] = median(runs)
		rep.layers["fleet.http_ms"] = median(https)
		batches := float64(nm1.batches - nm0.batches)
		if batches > 0 {
			rep.layers["fleet.batch_size_mean"] = (nm1.batchSum - nm0.batchSum) / batches
			retry := float64(nm1.counters["reader_retry_rounds_total"] - nm0.counters["reader_retry_rounds_total"])
			rep.layers["reader.retry_rounds"] = retry / batches
			rep.layers["reader.useful_pct"] = pct(float64(allReads), float64(allTries)+retry)
			rep.layers["relay.relocks"] = float64(nm1.counters["relay_relocks_total"]-nm0.counters["relay_relocks_total"]) / batches
			rep.layers["relay.resweeps"] = float64(nm1.counters["relay_resweeps_total"]-nm0.counters["relay_resweeps_total"]) / batches
			rep.layers["relay.loss_events"] = float64(nm1.counters["relay_loss_events_total"]-nm0.counters["relay_loss_events_total"]) / batches
		}
		rep.layers["fleet.batched_pct"] = pct(float64(nm1.batched-nm0.batched), float64(nm1.completed-nm0.completed))
		rep.layers["fleet.shard_busy_pct"] = pct(nm1.busyS-nm0.busyS, nm1.uptimeS-nm0.uptimeS)
		rep.layers["fleet.rejected"] = float64(nm1.rejected - nm0.rejected)
		if o.federated {
			rep.layers["federation.node_wait_ms"] = median(waits)
			rep.layers["federation.node_run_ms"] = median(runs)
			rep.layers["federation.overhead_ms"] = median(https)
			rep.layers["federation.replicated"] = float64(fm1.Replicated-fm0.Replicated) / n
			rep.layers["federation.capture_replicated"] = float64(fm1.CaptureReplicated-fm0.CaptureReplicated) / n
			rep.layers["federation.capture_full_syncs"] = float64(fm1.CaptureFullSyncs-fm0.CaptureFullSyncs) / n
			rep.layers["federation.spilled"] = float64(fm1.Spilled - fm0.Spilled)
			rep.layers["federation.failovers"] = float64(fm1.Failovers - fm0.Failovers)
		}
		rep.gcLayers(ms0, ms1, n)
		if t, ok := tailOf(lags); ok {
			rep.layers["gen.lag_tail_ms"] = t.Value
		}
		rep.layers["error_pct"] = pct(float64(rep.failed), float64(rep.attempted))
	}
	rep.note("offered %.1f rps for %.0f s: %d requests, %d completed; read_rate_pct and loc_err_m over %d SAR requests, %d localized",
		o.rps, seconds, len(arrs), len(lats), sars, len(locErrs))
	return rep, nil
}

// coalescesExclusive reports whether fleet puts a queued Exclusive
// request into the batch of a non-exclusive head with the same region
// and channel plan. Both are queued on a one-shard scheduler before it
// starts, so the first batch it takes decides, whatever the timing.
func coalescesExclusive(ctx context.Context) (bool, error) {
	sc, err := fleet.New(fleet.Config{Shards: 1, Sorties: 1})
	if err != nil {
		return false, err
	}
	defer sc.Stop(ctx)
	region := fleet.Regions["dock"]
	tags := []runtime.TagSpec{{ID: 1, X: region.RelayPos.X + 1, Y: region.RelayPos.Y, Z: 1}}
	if _, err := sc.Submit(fleet.Request{Region: region.Name, Tags: tags}); err != nil {
		return false, err
	}
	id, err := sc.Submit(fleet.Request{Region: region.Name, Tags: tags, Exclusive: true, Seed: 1})
	if err != nil {
		return false, err
	}
	sc.Start()
	select {
	case <-sc.Done(id):
	case <-ctx.Done():
		return false, ctx.Err()
	}
	v, _ := sc.Get(id)
	return v.BatchSize > 1, nil
}

// twinCheck sends the schedule's first SAR request once more, alone
// after the load, and flies it again in process from the config
// fleet.MissionConfig builds for it: the served outcome must match the
// twin's reads and location bit for bit.
func (o openLoop) twinCheck(ctx context.Context, st *stack, arrs []arrival) error {
	var pinned *arrival
	for i := range arrs {
		if arrs[i].sar {
			pinned = &arrs[i]
			break
		}
	}
	if pinned == nil {
		return fmt.Errorf("twin check: the schedule has no SAR request")
	}
	a := *pinned
	a.at = 0
	recs, _ := o.drive(ctx, st, []arrival{a}, false)
	r := recs[0]
	if !r.ok {
		return fmt.Errorf("twin check request: %v", r.err)
	}
	req := fleet.Request{
		Region: a.req.Region, ChannelHz: a.req.ChannelHz, Seed: a.req.Seed,
		SARPoints: a.req.SARPoints, Exclusive: true,
	}
	for _, t := range a.req.Tags {
		req.Tags = append(req.Tags, runtime.TagSpec{ID: t.ID, X: t.X, Y: t.Y, Z: t.Z})
	}
	e, err := runtime.New(fleet.MissionConfig(st.scheds[0].Config(), req, 0))
	if err != nil {
		return err
	}
	res, err := e.Run(ctx)
	if err != nil {
		return err
	}
	reads := 0
	for _, n := range e.TagReads() {
		reads += int(n)
	}
	if res.LocOK != r.out.LocOK || res.LocX != r.out.LocX || res.LocY != r.out.LocY || reads != r.out.Reads {
		return fmt.Errorf("served SAR request %s (loc %v,%v ok=%v reads %d) differs from its in-process twin (loc %v,%v ok=%v reads %d)",
			r.id, r.out.LocX, r.out.LocY, r.out.LocOK, r.out.Reads, res.LocX, res.LocY, res.LocOK, reads)
	}
	return nil
}
