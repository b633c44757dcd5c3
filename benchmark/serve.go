package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tupelo/internal/core"
	"tupelo/internal/critio"
	"tupelo/internal/datagen"
	"tupelo/internal/fira"
	"tupelo/internal/obs"
	"tupelo/internal/relation"
	"tupelo/internal/repo"
	"tupelo/internal/search"
	"tupelo/internal/server"
)

// The serve-mix shape: two closed-loop clients, one execution slot, a
// store pre-seeded with preseedN mappings, and per client coldPerClient
// first-time pairs plus hitsPerClient repeats of the client's own earlier
// pairs (a fixed 25% share of repository hits).
const (
	clients       = 2
	slots         = 1
	preseedN      = 256
	coldPerClient = 90
	hitsPerClient = 30
)

// servePair is one BAMM mapping pair, with the critio text a client sends.
type servePair struct {
	label            string
	src, tgt         *relation.Database
	srcText, tgtText string
	key              string
}

// request is one request of a client's stream.
type request struct {
	hit  bool
	pair *servePair
	body []byte
}

func (r request) class() string {
	if r.hit {
		return "hit"
	}
	return "cold"
}

// serveInputs is everything serve-mix generates from its seed.
type serveInputs struct {
	preseed []*servePair
	streams [clients][]request
}

// bammPairs enumerates the distinct BAMM mapping pairs of the seed's
// domains: the fixed schema to each sibling, and each sibling to every
// sibling whose values it holds (a mapping exists only then), deduplicated
// by repository key.
func bammPairs(seed int64) []*servePair {
	var out []*servePair
	seen := make(map[string]bool)
	add := func(label string, src, tgt *relation.Database) {
		key := repo.PairKey(src, tgt)
		if src.Key() == tgt.Key() || seen[key] {
			return
		}
		seen[key] = true
		out = append(out, &servePair{label: label, src: src, tgt: tgt, key: key})
	}
	for _, d := range datagen.BAMM(seed) {
		for i, t := range d.Targets {
			add(fmt.Sprintf("%s fixed->%d", d.Name, i), d.Fixed, t)
		}
		for i, s := range d.Targets {
			vals := s.ValueSet()
			for j, t := range d.Targets {
				if i != j && subset(t.ValueSet(), vals) {
					add(fmt.Sprintf("%s %d->%d", d.Name, i, j), s, t)
				}
			}
		}
	}
	return out
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// genServeInputs draws, from the seed, the pre-seeded pairs and the two
// clients' request streams. Each stream opens with a cold pair, and every
// hit repeats a pair that the same client sent cold earlier, so the hit is
// committed before it is asked for.
func genServeInputs(seed int64) (*serveInputs, error) {
	pairs := bammPairs(seed)
	need := preseedN + clients*coldPerClient
	if len(pairs) < need {
		return nil, fmt.Errorf("serve-mix: seed %d yields %d distinct BAMM pairs, need %d", seed, len(pairs), need)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for _, p := range pairs[:need] {
		p.srcText = critio.WriteString(&critio.Instance{DB: p.src})
		p.tgtText = critio.WriteString(&critio.Instance{DB: p.tgt})
	}
	in := &serveInputs{preseed: pairs[:preseedN]}
	next := preseedN
	for c := 0; c < clients; c++ {
		colds := pairs[next : next+coldPerClient]
		next += coldPerClient
		hits := make([]bool, coldPerClient+hitsPerClient)
		for i := 0; i < hitsPerClient; i++ {
			hits[i] = true
		}
		rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
		for i := range hits {
			if !hits[i] {
				hits[0], hits[i] = hits[i], hits[0]
				break
			}
		}
		var sent []*servePair
		for _, hit := range hits {
			var p *servePair
			if hit {
				p = sent[rng.Intn(len(sent))]
			} else {
				p = colds[len(sent)]
				sent = append(sent, p)
			}
			body, err := json.Marshal(server.JobRequest{Tenant: fmt.Sprintf("client-%d", c), Source: p.srcText, Target: p.tgtText})
			if err != nil {
				return nil, err
			}
			in.streams[c] = append(in.streams[c], request{hit: hit, pair: p, body: body})
		}
	}
	return in, nil
}

// serveWorkload drives tupelo-serve's handler over loopback.
type serveWorkload struct {
	seed int64
	// dir is the pre-seeded store; seeded names its files, so teardown can
	// return it to the pre-seeded state, moving the pass's entries into
	// spent; putMS is the mean repo.Put time measured while pre-seeding.
	dir, spent string
	seeded     map[string]bool
	passes     int
	putMS      float64

	// Per pass: brought up by setup, released by teardown.
	in     *serveInputs
	open   time.Duration
	reg    *obs.Registry
	ts     *httptest.Server
	client *http.Client
}

// newServeWorkload creates and pre-seeds the store once per run: each
// pre-seed pair is solved by core.Discover, certified, and committed with
// repo.Put (fsync'd). Timed passes start from this state.
func newServeWorkload(seed int64, root string) (*serveWorkload, error) {
	in, err := genServeInputs(seed)
	if err != nil {
		return nil, err
	}
	run, err := storeDir(root, "serve-")
	if err != nil {
		return nil, err
	}
	dir, spent := filepath.Join(run, "store"), filepath.Join(run, "spent")
	if err := os.Mkdir(spent, 0o755); err != nil {
		return nil, err
	}
	w := &serveWorkload{seed: seed, dir: dir, spent: spent, seeded: make(map[string]bool)}
	store, err := repo.Open(dir, repo.Options{})
	if err != nil {
		return nil, err
	}
	var put time.Duration
	for _, p := range in.preseed {
		res, err := core.Discover(p.src, p.tgt, core.Options{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("pre-seeding %s: %w", p.label, err)
		}
		if err := core.Verify(res.Expr, p.src, p.tgt, nil); err != nil {
			return nil, fmt.Errorf("pre-seeding %s: %w", p.label, err)
		}
		e := &repo.Entry{
			Key: p.key, SourceKey: p.key[:32], TargetKey: p.key[32:],
			Expr: res.Expr.String(), Algorithm: res.Algorithm.String(),
			Heuristic: res.Heuristic.String(), K: res.K, Examined: res.Stats.Examined,
		}
		t0 := time.Now()
		if err := store.Put(e); err != nil {
			return nil, err
		}
		put += time.Since(t0)
	}
	w.putMS = float64(put) / float64(time.Millisecond) / float64(len(in.preseed))
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range names {
		w.seeded[de.Name()] = true
	}
	return w, nil
}

// setup generates the inputs, opens the pre-seeded store (its recovery
// scan), and brings up the server and its loopback listener.
func (w *serveWorkload) setup(traced bool) error {
	in, err := genServeInputs(w.seed)
	if err != nil {
		return err
	}
	w.in = in
	w.reg = obs.NewRegistry()
	var ropts repo.Options
	if traced {
		ropts.Metrics = w.reg
	}
	t0 := time.Now()
	store, err := repo.Open(w.dir, ropts)
	w.open = time.Since(t0)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Repo: store, MaxConcurrent: slots, Metrics: w.reg, RetrySeed: w.seed})
	if err != nil {
		return err
	}
	w.ts = httptest.NewServer(srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return nil
}

// teardown stops the server and moves every entry the pass committed out
// of the store, returning it to its pre-seeded state. Nothing is deleted,
// now or when the run ends: on a disk mounted with online discard, freeing
// a run's thousands of entries slows every fsync for several seconds
// afterwards, in this run's next passes or in the next run. The store and
// the entries moved aside stay under the run's directory in .bench_build,
// tens of MB per run.
func (w *serveWorkload) teardown() error {
	if w.ts != nil {
		w.client.CloseIdleConnections()
		w.ts.Close()
		w.ts = nil
	}
	names, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	w.passes++
	for _, de := range names {
		if !w.seeded[de.Name()] {
			spent := filepath.Join(w.spent, fmt.Sprintf("%d-%s", w.passes, de.Name()))
			if err := os.Rename(filepath.Join(w.dir, de.Name()), spent); err != nil {
				return err
			}
		}
	}
	return nil
}

// reply is one response as the client saw it.
type reply struct {
	status int
	body   []byte
	lat    time.Duration
	err    error
}

// pass sends both clients' streams, each client waiting for every reply
// before its next request, then certifies every reply.
func (w *serveWorkload) pass(traced bool) (*passResult, error) {
	url := w.ts.URL + "/v1/jobs"
	var replies [clients][]reply
	var wg sync.WaitGroup
	rt0 := sampleRuntime()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]reply, len(w.in.streams[c]))
			for i, rq := range w.in.streams[c] {
				t0 := time.Now()
				status, body, err := post(w.client, url, rq.body)
				out[i] = reply{status: status, body: body, lat: time.Since(t0), err: err}
			}
			replies[c] = out
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	p := &passResult{
		wall: wall, busy: wall, rt: rt0.until(sampleRuntime()),
		lat:     map[string][]time.Duration{},
		classes: map[string]*classCount{"cold": {}, "hit": {}},
	}
	for c := 0; c < clients; c++ {
		for i, rq := range w.in.streams[c] {
			r := replies[c][i]
			cc := p.classes[rq.class()]
			cc.attempted++
			p.attempted++
			p.lat[rq.class()] = append(p.lat[rq.class()], r.lat)
			if !rq.hit {
				p.discoveries++
			}
			examined, rejected, err := certify(rq, r)
			switch {
			case rejected:
				cc.rejected++
			case err != nil:
				cc.failed++
			default:
				cc.succeeded++
				if !rq.hit {
					p.solved++
					p.states += examined
				}
			}
			if err != nil {
				p.failures = append(p.failures, fmt.Sprintf("client %d request %d (%s %s): %v", c, i, rq.class(), rq.pair.label, err))
			}
		}
	}
	snap := w.reg.Snapshot()
	p.searched = int(counterSum(snap, "search.examined"))
	if traced {
		layers, err := w.layers(snap, p)
		if err != nil {
			return nil, err
		}
		p.layers = layers
	}
	return p, nil
}

// post sends one job request and reads the whole response.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// certify checks one reply: a 200 whose mapping, parsed with fira.Parse,
// maps the submitted source onto the submitted target, and which is a
// repository hit exactly when the stream sent a repeat. It returns the
// states the job examined; rejected marks an admission refusal.
func certify(rq request, r reply) (examined int, rejected bool, err error) {
	if r.err != nil {
		return 0, false, r.err
	}
	if r.status != http.StatusOK {
		var er server.ErrorResponse
		_ = json.Unmarshal(r.body, &er)
		switch er.Cause {
		case "queue-full", "tenant-quota", "breaker-open", "draining":
			rejected = true
		}
		return 0, rejected, fmt.Errorf("HTTP %d: %s (%s)", r.status, er.Error, er.Cause)
	}
	var jr server.JobResponse
	if err := json.Unmarshal(r.body, &jr); err != nil {
		return 0, false, fmt.Errorf("decoding response: %w", err)
	}
	if jr.Cached != rq.hit {
		return 0, false, fmt.Errorf("cached=%v for a %s request", jr.Cached, rq.class())
	}
	if !jr.Solved {
		return 0, false, fmt.Errorf("partial mapping")
	}
	expr, err := fira.Parse(jr.Expr)
	if err != nil {
		return 0, false, fmt.Errorf("parsing mapping: %w", err)
	}
	if err := core.Verify(expr, rq.pair.src, rq.pair.tgt, nil); err != nil {
		return 0, false, fmt.Errorf("mapping failed certification: %w", err)
	}
	return jr.Examined, false, nil
}

// layers builds a traced pass's per-layer values. The engine ledger runs in
// member-seconds: its wall is the summed portfolio.member.duration of every
// member of every cold job, and its set-up part is one cancelled-context
// probe per (cold pair, default portfolio member), run here on databases
// parsed afresh from the request text, whose parsing is timed as
// critio.parse_us.
func (w *serveWorkload) layers(snap obs.Snapshot, p *passResult) (map[string]float64, error) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	probeReg := obs.NewRegistry()
	var parse, setup time.Duration
	var parsed int
	for c := 0; c < clients; c++ {
		for _, rq := range w.in.streams[c] {
			t0 := time.Now()
			src, err := critio.ReadString(rq.pair.srcText)
			if err != nil {
				return nil, err
			}
			tgt, err := critio.ReadString(rq.pair.tgtText)
			if err != nil {
				return nil, err
			}
			_ = repo.PairKey(src.DB, tgt.DB)
			parse += time.Since(t0)
			parsed++
			if rq.hit {
				continue
			}
			for _, cfg := range core.DefaultPortfolio() {
				// The budget is the server's default per-job MaxStates.
				opts := core.Options{Algorithm: cfg.Algorithm, Heuristic: cfg.Heuristic, K: cfg.K,
					Workers: 1, Metrics: probeReg, Limits: search.Limits{MaxStates: 200_000}}
				t0 := time.Now()
				_, _ = core.DiscoverContext(cancelled, src.DB, tgt.DB, opts)
				setup += time.Since(t0)
			}
		}
	}
	memberWall, _ := timerSum(snap, "portfolio.member.duration")
	startEval, _ := histSum(probeReg.Snapshot(), "heuristic.eval.seconds")
	m := engineLayers(snap, ledgerInput{wall: memberWall, setup: setup, startEval: startEval})

	job, jobs := timerSum(snap, "server.job.duration")
	jobMS := ratio(float64(job)/float64(time.Millisecond), float64(jobs))
	coldMS := meanMS(p.lat["cold"])
	hits, misses := counterSum(snap, "server.repo.hits"), counterSum(snap, "server.repo.misses")
	all := m["search.examined"]
	m["core.portfolio_wasted_frac"] = ratio(all-float64(p.states), all)
	m["critio.parse_us"] = ratio(float64(parse)/float64(time.Microsecond), float64(parsed))
	m["repo.put_ms"] = w.putMS
	m["repo.open_s"] = w.open.Seconds()
	m["server.job_ms_mean"] = jobMS
	m["cold_mean_ms"] = coldMS
	m["server.outside_job_ms"] = coldMS - jobMS
	m["server.outside_job_frac"] = ratio(coldMS-jobMS, coldMS)
	m["server.rejected_frac"] = ratio(counterSum(snap, "server.jobs.rejected"), float64(p.attempted))
	m["server.repo_hit_frac"] = ratio(hits, hits+misses)
	return m, nil
}
