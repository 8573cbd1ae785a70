package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdbscan"
	"pdbscan/engine"
)

// genPoints returns n deterministic pseudo-random 2D points in a k-cluster
// layout (same generator as the engine tests).
func genPoints(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	centers := [][2]float64{{0, 0}, {40, 5}, {10, 50}, {60, 60}}
	for i := range pts {
		if i%10 == 9 {
			pts[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
			continue
		}
		c := centers[i%len(centers)]
		pts[i] = []float64{c[0] + rng.NormFloat64()*2, c[1] + rng.NormFloat64()*2}
	}
	return pts
}

// tclient is a minimal JSON client against one httptest server.
type tclient struct {
	t    *testing.T
	base string
	c    *http.Client
}

func newTestServer(t *testing.T, opts Options) (*Server, *tclient, func()) {
	t.Helper()
	srv := New(opts)
	hs := httptest.NewServer(srv)
	tc := &tclient{t: t, base: hs.URL, c: hs.Client()}
	return srv, tc, func() {
		hs.Close()
		srv.Close()
	}
}

// do issues one request; body is JSON-encoded if non-nil, and the response
// body is decoded into out if non-nil and decodable. Returns the response
// (body already consumed).
func (tc *tclient) do(method, path string, body any, out any) *http.Response {
	tc.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			tc.t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, tc.base+path, rd)
	if err != nil {
		tc.t.Fatalf("NewRequest: %v", err)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		tc.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		tc.t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			tc.t.Fatalf("%s %s: decode %q: %v", method, path, buf.String(), err)
		}
	}
	return resp
}

// expect issues the request and asserts the status code.
func (tc *tclient) expect(method, path string, body any, status int, out any) *http.Response {
	tc.t.Helper()
	resp := tc.do(method, path, body, out)
	if resp.StatusCode != status {
		tc.t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, status)
	}
	return resp
}

func (tc *tclient) createSession(req CreateSessionRequest) SessionInfo {
	tc.t.Helper()
	var info SessionInfo
	tc.expect("POST", "/v1/sessions", req, http.StatusCreated, &info)
	return info
}

func TestSessionLifecycle(t *testing.T) {
	_, tc, done := newTestServer(t, Options{})
	defer done()

	pts := genPoints(500, 1)
	batch := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 3, Points: pts})
	if batch.Kind != "batch" || batch.NumPoints != 500 || batch.Dims != 2 {
		t.Fatalf("batch info = %+v", batch)
	}
	stream := tc.createSession(CreateSessionRequest{Kind: "streaming", Eps: 3, Dims: 2})
	if stream.NumPoints != 0 {
		t.Fatalf("fresh streaming session has %d points", stream.NumPoints)
	}
	hier := tc.createSession(CreateSessionRequest{Kind: "hierarchy", Eps: 3, MinPts: 5, Points: pts})
	if hier.MinPts != 5 {
		t.Fatalf("hierarchy info = %+v", hier)
	}

	var infos []SessionInfo
	tc.expect("GET", "/v1/sessions", nil, http.StatusOK, &infos)
	if len(infos) != 3 {
		t.Fatalf("listed %d sessions, want 3", len(infos))
	}
	var got SessionInfo
	tc.expect("GET", "/v1/sessions/"+batch.ID, nil, http.StatusOK, &got)
	if got.ID != batch.ID {
		t.Fatalf("got %+v", got)
	}

	tc.expect("DELETE", "/v1/sessions/"+stream.ID, nil, http.StatusNoContent, nil)
	tc.expect("GET", "/v1/sessions/"+stream.ID, nil, http.StatusNotFound, nil)
	tc.expect("DELETE", "/v1/sessions/"+stream.ID, nil, http.StatusNotFound, nil)
	tc.expect("POST", "/v1/sessions/"+stream.ID+"/runs",
		SubmitRunRequest{Config: ConfigJSON{MinPts: 5}, Wait: true}, http.StatusNotFound, nil)
}

func TestBatchRunWaitMatchesDirect(t *testing.T) {
	_, tc, done := newTestServer(t, Options{})
	defer done()
	pts := genPoints(2000, 2)
	sess := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 3, Points: pts})

	var st RunStatus
	tc.expect("POST", "/v1/sessions/"+sess.ID+"/runs",
		SubmitRunRequest{Config: ConfigJSON{MinPts: 8}, Wait: true}, http.StatusOK, &st)
	if st.State != "done" || st.Result == nil || st.Stats == nil {
		t.Fatalf("run status = %+v", st)
	}
	if st.Stats.RunNS <= 0 {
		t.Fatalf("run stats report no execution time: %+v", st.Stats)
	}

	c, err := pdbscan.NewClusterer(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(pdbscan.Config{MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.Result.NumClusters != want.NumClusters || st.Result.NumNoise != want.NumNoise() {
		t.Fatalf("served run: %d clusters / %d noise, direct: %d / %d",
			st.Result.NumClusters, st.Result.NumNoise, want.NumClusters, want.NumNoise())
	}
	for i := range want.Labels {
		if st.Result.Labels[i] != want.Labels[i] {
			t.Fatalf("label[%d] = %d, want %d", i, st.Result.Labels[i], want.Labels[i])
		}
		if st.Result.Core[i] != want.Core[i] {
			t.Fatalf("core[%d] = %v, want %v", i, st.Result.Core[i], want.Core[i])
		}
	}
}

func TestAsyncRunPollAndDelete(t *testing.T) {
	_, tc, done := newTestServer(t, Options{})
	defer done()
	pts := genPoints(2000, 3)
	sess := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 3, Points: pts})

	var pending RunStatus
	tc.expect("POST", "/v1/sessions/"+sess.ID+"/runs",
		SubmitRunRequest{Config: ConfigJSON{MinPts: 8}, Priority: 3}, http.StatusAccepted, &pending)
	if pending.ID == "" || pending.State != "pending" {
		t.Fatalf("async submit = %+v", pending)
	}

	var st RunStatus
	tc.expect("GET", "/v1/sessions/"+sess.ID+"/runs/"+pending.ID+"?wait=1", nil, http.StatusOK, &st)
	if st.State != "done" || st.Result == nil || st.Stats == nil {
		t.Fatalf("fetched run = %+v", st)
	}
	// A settled run stays fetchable until deleted.
	tc.expect("GET", "/v1/sessions/"+sess.ID+"/runs/"+pending.ID, nil, http.StatusOK, &st)
	tc.expect("DELETE", "/v1/sessions/"+sess.ID+"/runs/"+pending.ID, nil, http.StatusNoContent, nil)
	tc.expect("GET", "/v1/sessions/"+sess.ID+"/runs/"+pending.ID, nil, http.StatusNotFound, nil)
}

func TestStreamingSessionFlow(t *testing.T) {
	_, tc, done := newTestServer(t, Options{})
	defer done()
	sess := tc.createSession(CreateSessionRequest{Kind: "streaming", Eps: 3, Dims: 2})
	path := "/v1/sessions/" + sess.ID

	var ins struct {
		IDs []int64 `json:"ids"`
	}
	tc.expect("POST", path+"/points", InsertPointsRequest{Points: genPoints(1000, 4)}, http.StatusOK, &ins)
	if len(ins.IDs) != 1000 {
		t.Fatalf("inserted %d ids", len(ins.IDs))
	}

	var st RunStatus
	tc.expect("POST", path+"/runs", SubmitRunRequest{Config: ConfigJSON{MinPts: 8}, Wait: true}, http.StatusOK, &st)
	if st.State != "done" || len(st.Result.Labels) != 1000 || len(st.Result.IDs) != 1000 {
		t.Fatalf("tick = %+v", st)
	}

	tc.expect("DELETE", path+"/points", RemovePointsRequest{IDs: ins.IDs[:100]}, http.StatusOK, nil)
	var win struct {
		Evicted []int64 `json:"evicted"`
	}
	tc.expect("POST", path+"/window", WindowRequest{N: 600}, http.StatusOK, &win)
	if len(win.Evicted) != 300 {
		t.Fatalf("window evicted %d, want 300 (900 live - 600 kept)", len(win.Evicted))
	}
	tc.expect("POST", path+"/runs", SubmitRunRequest{Config: ConfigJSON{MinPts: 8}, Wait: true}, http.StatusOK, &st)
	if len(st.Result.Labels) != 600 {
		t.Fatalf("tick after window has %d labels, want 600", len(st.Result.Labels))
	}

	// Mutations on a batch session are a 400.
	b := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 3, Points: genPoints(100, 5)})
	tc.expect("POST", "/v1/sessions/"+b.ID+"/points", InsertPointsRequest{Points: genPoints(10, 6)}, http.StatusBadRequest, nil)
}

func TestHierarchySessionCuts(t *testing.T) {
	_, tc, done := newTestServer(t, Options{})
	defer done()
	pts := genPoints(1500, 7)
	sess := tc.createSession(CreateSessionRequest{Kind: "hierarchy", Eps: 3, MinPts: 5, Points: pts})

	c, err := pdbscan.NewClusterer(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.BuildHierarchy(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.75, 1.5, 3} {
		var st RunStatus
		tc.expect("POST", "/v1/sessions/"+sess.ID+"/runs",
			SubmitRunRequest{Config: ConfigJSON{Eps: eps}, Wait: true}, http.StatusOK, &st)
		want, err := h.CutEps(eps)
		if err != nil {
			t.Fatal(err)
		}
		if st.Result.NumClusters != want.NumClusters {
			t.Fatalf("cut at %g: %d clusters, want %d", eps, st.Result.NumClusters, want.NumClusters)
		}
		for i := range want.Labels {
			if st.Result.Labels[i] != want.Labels[i] {
				t.Fatalf("cut at %g: label[%d] = %d, want %d", eps, i, st.Result.Labels[i], want.Labels[i])
			}
		}
	}
	// A cut beyond the build radius is a validation error, rejected before
	// the job occupies a queue slot.
	tc.expect("POST", "/v1/sessions/"+sess.ID+"/runs",
		SubmitRunRequest{Config: ConfigJSON{Eps: 99}, Wait: true}, http.StatusBadRequest, nil)
}

// TestStatusCodeMapping drives every failure mode to its documented HTTP
// status: 400 validation, 404 unknown ids, 429 + Retry-After on a full
// queue, 504 on queue timeout and request deadline, 503 + Retry-After when
// draining.
func TestStatusCodeMapping(t *testing.T) {
	// QueueTimeout is generous: the queued job must still be occupying its
	// queue slot when the overflow submit arrives (the race detector slows
	// each HTTP round trip), and only time out afterwards.
	const queueTimeout = 2 * time.Second
	_, tc, done := newTestServer(t, Options{
		Engine:     engine.Options{Budget: 1, MaxQueue: 1, QueueTimeout: queueTimeout},
		RetryAfter: 2 * time.Second,
	})
	defer done()

	small := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 3, Points: genPoints(500, 8)})

	// Pure validation, no scheduling involved.
	for _, bad := range []struct {
		name   string
		method string
		path   string
		body   any
	}{
		{"unknown kind", "POST", "/v1/sessions", CreateSessionRequest{Kind: "nope", Eps: 3}},
		{"batch without points", "POST", "/v1/sessions", CreateSessionRequest{Kind: "batch", Eps: 3}},
		{"bad eps", "POST", "/v1/sessions", CreateSessionRequest{Kind: "streaming", Eps: -1, Dims: 2}},
		{"hierarchy without minpts", "POST", "/v1/sessions", CreateSessionRequest{Kind: "hierarchy", Eps: 3, Points: genPoints(50, 9)}},
		{"unknown config field", "POST", "/v1/sessions/" + small.ID + "/runs", map[string]any{"config": map[string]any{"minPoints": 5}}},
		{"zero minpts", "POST", "/v1/sessions/" + small.ID + "/runs", SubmitRunRequest{Config: ConfigJSON{MinPts: 0}, Wait: true}},
		{"unknown method", "POST", "/v1/sessions/" + small.ID + "/runs", SubmitRunRequest{Config: ConfigJSON{MinPts: 5, Method: "magic"}, Wait: true}},
		{"negative shards", "POST", "/v1/sessions/" + small.ID + "/runs", SubmitRunRequest{Config: ConfigJSON{MinPts: 5, Shards: -1}, Wait: true}},
		{"eps mismatch", "POST", "/v1/sessions/" + small.ID + "/runs", SubmitRunRequest{Config: ConfigJSON{Eps: 7, MinPts: 5}, Wait: true}},
	} {
		if resp := tc.do(bad.method, bad.path, bad.body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad.name, resp.StatusCode)
		}
	}
	tc.expect("GET", "/v1/sessions/nosuch", nil, http.StatusNotFound, nil)
	tc.expect("GET", "/v1/sessions/"+small.ID+"/runs/nosuch", nil, http.StatusNotFound, nil)

	// Saturate the budget: a whole-budget async run that cannot early-exit
	// core counting (minPts far above any neighborhood size), so it blocks
	// for tens of seconds unless cancelled — and cancels within milliseconds.
	blockSess := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 2, Points: genPoints(300000, 10)})
	var blocker RunStatus
	tc.expect("POST", "/v1/sessions/"+blockSess.ID+"/runs",
		SubmitRunRequest{Config: ConfigJSON{MinPts: 200000}}, http.StatusAccepted, &blocker)
	// Unwind the blocker on any exit — teardown's Engine.Close would
	// otherwise wait out its full run.
	defer tc.do("DELETE", "/v1/sessions/"+blockSess.ID+"/runs/"+blocker.ID, nil, nil)

	// Fill the queue (MaxQueue 1), then overflow it: 429 with Retry-After.
	var queued RunStatus
	tc.expect("POST", "/v1/sessions/"+small.ID+"/runs",
		SubmitRunRequest{Config: ConfigJSON{MinPts: 5}}, http.StatusAccepted, &queued)
	resp := tc.expect("POST", "/v1/sessions/"+small.ID+"/runs",
		SubmitRunRequest{Config: ConfigJSON{MinPts: 5}, Wait: true}, http.StatusTooManyRequests, nil)
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("429 Retry-After = %q, want \"2\"", ra)
	}

	// The queued job exceeds QueueTimeout behind the blocker: fetching it
	// reports 504.
	var timedOut RunStatus
	resp = tc.do("GET", "/v1/sessions/"+small.ID+"/runs/"+queued.ID+"?wait=1", nil, &timedOut)
	if resp.StatusCode != http.StatusGatewayTimeout || timedOut.State != "failed" {
		t.Fatalf("timed-out run: status %d, body %+v; want 504/failed", resp.StatusCode, timedOut)
	}
	if timedOut.Stats == nil || time.Duration(timedOut.Stats.QueuedNS) < queueTimeout {
		t.Fatalf("timed-out run must report its true queue wait, got %+v", timedOut.Stats)
	}

	// A wait run with a short request deadline behind the blocker: 504.
	resp = tc.do("POST", "/v1/sessions/"+small.ID+"/runs",
		SubmitRunRequest{Config: ConfigJSON{MinPts: 5}, DeadlineMillis: 30, Wait: true}, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline run: status %d, want 504", resp.StatusCode)
	}
}

// TestShutdownDrain pins the drain ordering: after Drain, in-flight jobs
// finish and are fetchable, while new mutating requests get 503 with
// Retry-After.
func TestShutdownDrain(t *testing.T) {
	srv, tc, done := newTestServer(t, Options{Engine: engine.Options{Budget: 1}})
	defer done()
	sess := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 3, Points: genPoints(20000, 11)})

	// An in-flight wait run crossing the drain point.
	var wg sync.WaitGroup
	wg.Add(1)
	var inflight RunStatus
	var inflightCode int
	go func() {
		defer wg.Done()
		resp := tc.do("POST", "/v1/sessions/"+sess.ID+"/runs",
			SubmitRunRequest{Config: ConfigJSON{MinPts: 8}, Wait: true}, &inflight)
		inflightCode = resp.StatusCode
	}()
	time.Sleep(10 * time.Millisecond)
	srv.Drain()

	for _, req := range []struct {
		name, method, path string
		body               any
	}{
		{"submit", "POST", "/v1/sessions/" + sess.ID + "/runs", SubmitRunRequest{Config: ConfigJSON{MinPts: 8}, Wait: true}},
		{"create", "POST", "/v1/sessions", CreateSessionRequest{Kind: "streaming", Eps: 3, Dims: 2}},
		{"healthz", "GET", "/healthz", nil},
	} {
		resp := tc.do(req.method, req.path, req.body, nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while draining: status %d, want 503", req.name, resp.StatusCode)
		}
		if req.name != "healthz" {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Errorf("%s while draining: no Retry-After", req.name)
			}
		}
	}

	// The in-flight run completes normally, and read-only endpoints survive.
	wg.Wait()
	if inflightCode != http.StatusOK || inflight.State != "done" {
		t.Fatalf("in-flight run after drain: status %d, %+v", inflightCode, inflight)
	}
	tc.expect("GET", "/v1/sessions/"+sess.ID, nil, http.StatusOK, nil)

	// After Close (engine gone), submits map ErrClosed to 503 as well — but
	// the drain flag already covers the HTTP path; pin the engine-level
	// mapping directly.
	srv.Close()
	if status := submitStatus(engine.ErrClosed); status != http.StatusServiceUnavailable {
		t.Fatalf("submitStatus(ErrClosed) = %d, want 503", status)
	}
}

// TestConcurrentSessions drives mixed sessions concurrently through one
// server under -race.
func TestConcurrentSessions(t *testing.T) {
	_, tc, done := newTestServer(t, Options{Engine: engine.Options{Budget: 4, MaxQueue: 256}})
	defer done()

	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pts := genPoints(600, int64(20+g))
			switch g % 3 {
			case 0:
				sess := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 3, Points: pts})
				for _, mp := range []int{5, 10, 20} {
					var st RunStatus
					tc.expect("POST", "/v1/sessions/"+sess.ID+"/runs",
						SubmitRunRequest{Config: ConfigJSON{MinPts: mp, Workers: 1 + g%3}, Priority: g, Wait: true},
						http.StatusOK, &st)
					if st.State != "done" {
						t.Errorf("batch run: %+v", st)
					}
				}
			case 1:
				sess := tc.createSession(CreateSessionRequest{Kind: "streaming", Eps: 3, Points: pts})
				path := "/v1/sessions/" + sess.ID
				for i := 0; i < 3; i++ {
					tc.expect("POST", path+"/points", InsertPointsRequest{Points: genPoints(100, int64(40+i))}, http.StatusOK, nil)
					tc.expect("POST", path+"/window", WindowRequest{N: 650}, http.StatusOK, nil)
					var st RunStatus
					tc.expect("POST", path+"/runs",
						SubmitRunRequest{Config: ConfigJSON{MinPts: 8, Workers: 1}, Wait: true}, http.StatusOK, &st)
					if st.State != "done" || len(st.Result.Labels) == 0 {
						t.Errorf("tick: %+v", st)
					}
				}
			case 2:
				sess := tc.createSession(CreateSessionRequest{Kind: "hierarchy", Eps: 3, MinPts: 5, Points: pts})
				for _, eps := range []float64{1, 2, 3} {
					var st RunStatus
					tc.expect("POST", "/v1/sessions/"+sess.ID+"/runs",
						SubmitRunRequest{Config: ConfigJSON{Eps: eps}, Wait: true}, http.StatusOK, &st)
					if st.State != "done" {
						t.Errorf("cut: %+v", st)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOverloadBackpressure drives a volley of wait-runs from 24 sessions
// into a 1-worker engine with a 4-slot queue. Overload must surface only as
// 429/503 with Retry-After: every run still completes once retried, the
// engine never exceeds its worker budget, and the server drains and shuts
// down cleanly afterwards.
func TestOverloadBackpressure(t *testing.T) {
	srv := New(Options{Engine: engine.Options{Budget: 1, MaxQueue: 4}})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	const sessions = 24
	// Keep one idle connection per session, so retries reuse connections
	// instead of dialing (and waiting out SYN retransmits) under the volley.
	c := hs.Client()
	c.Transport.(*http.Transport).MaxIdleConnsPerHost = sessions

	// post sends one JSON request, retrying 429/503 after a short pause (not
	// the whole-second Retry-After, to keep the test fast) and counting them.
	var resp429, missingRetry atomic.Int64
	post := func(path string, body, out any) error {
		payload, err := json.Marshal(body)
		if err != nil {
			return err
		}
		for attempt := 0; attempt < 5000; attempt++ {
			resp, err := c.Post(hs.URL+path, "application/json", bytes.NewReader(payload))
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			switch resp.StatusCode {
			case http.StatusOK, http.StatusCreated:
				return json.Unmarshal(buf.Bytes(), out)
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				if resp.StatusCode == http.StatusTooManyRequests {
					resp429.Add(1)
				}
				if resp.Header.Get("Retry-After") == "" {
					missingRetry.Add(1)
				}
				time.Sleep(2 * time.Millisecond)
			default:
				return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
			}
		}
		return fmt.Errorf("POST %s: still rejected after 5000 attempts", path)
	}

	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if st := srv.Engine().Stats(); st.WorkersInUse > st.Budget {
				t.Errorf("engine stats: %d workers in use, budget %d", st.WorkersInUse, st.Budget)
			}
		}
	}()

	// Every session is created before any run is sent, so the runs arrive
	// as one volley against the 5 admission slots (1 running + 4 queued).
	var wg, created sync.WaitGroup
	created.Add(sessions)
	gate := make(chan struct{})
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var info SessionInfo
			err := post("/v1/sessions", CreateSessionRequest{Kind: "batch", Eps: 3, Points: genPoints(2000, int64(100+i))}, &info)
			created.Done()
			<-gate
			if err != nil {
				t.Errorf("session %d: create: %v", i, err)
				return
			}
			for _, mp := range []int{5, 10} {
				var st RunStatus
				if err := post("/v1/sessions/"+info.ID+"/runs",
					SubmitRunRequest{Config: ConfigJSON{MinPts: mp}, Wait: true}, &st); err != nil {
					t.Errorf("session %d minPts %d: %v", i, mp, err)
					return
				}
				if st.State != "done" {
					t.Errorf("session %d minPts %d: run state %q (%s)", i, mp, st.State, st.Error)
				}
			}
		}(i)
	}
	created.Wait()
	close(gate)
	wg.Wait()
	close(stop)
	<-sampled

	if n := missingRetry.Load(); n > 0 {
		t.Errorf("%d 429/503 responses without Retry-After", n)
	}
	if resp429.Load() == 0 {
		t.Error("no 429 under a 24-run volley against 5 admission slots")
	}
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Config.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after drain: %v", err)
	}
	t.Logf("%d 429s", resp429.Load())
}

var metricRe = regexp.MustCompile(`(?m)^(\w+)(?:\{[^}]*\})? ([0-9.e+-]+)$`)

// metricValue returns the first sample of the named metric (any labels) in a
// /metrics page, or -1.
func metricValue(body, name string) float64 {
	for _, m := range metricRe.FindAllStringSubmatch(body, -1) {
		if m[1] == name {
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

func (tc *tclient) metrics() string {
	tc.t.Helper()
	req, _ := http.NewRequest("GET", tc.base+"/metrics", nil)
	resp, err := tc.c.Do(req)
	if err != nil {
		tc.t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	return buf.String()
}

func TestMetricsEndpoint(t *testing.T) {
	_, tc, done := newTestServer(t, Options{})
	defer done()
	sess := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 3, Points: genPoints(1500, 12)})
	var st RunStatus
	tc.expect("POST", "/v1/sessions/"+sess.ID+"/runs",
		SubmitRunRequest{Config: ConfigJSON{MinPts: 8}, Wait: true}, http.StatusOK, &st)

	body := tc.metrics()
	for _, want := range []string{
		"dbscand_engine_worker_budget",
		"dbscand_engine_completed_total 1",
		`dbscand_sessions{kind="batch"} 1`,
		`dbscand_session_points{id="` + sess.ID + `",kind="batch"} 1500`,
		`dbscand_session_last_run_seconds{id="` + sess.ID + `",phase="total"}`,
		`dbscand_job_queue_seconds_bucket{le="+Inf"} 1`,
		"dbscand_job_run_seconds_count 1",
		`dbscand_http_responses_total{code="200"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsQueueWaitRecorded is the serving-layer half of the queue-wait
// regression: jobs that died waiting (deadline expired while queued) must
// contribute their true wait to the /metrics queue histogram, not zeros.
func TestMetricsQueueWaitRecorded(t *testing.T) {
	_, tc, done := newTestServer(t, Options{Engine: engine.Options{Budget: 1}})
	defer done()

	blockSess := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 2, Points: genPoints(300000, 13)})
	var blocker RunStatus
	tc.expect("POST", "/v1/sessions/"+blockSess.ID+"/runs",
		SubmitRunRequest{Config: ConfigJSON{MinPts: 200000}}, http.StatusAccepted, &blocker)
	defer tc.do("DELETE", "/v1/sessions/"+blockSess.ID+"/runs/"+blocker.ID, nil, nil)

	// Two wait runs with short deadlines die in the queue behind the blocker,
	// each after >= 30ms of waiting.
	small := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 3, Points: genPoints(500, 14)})
	for i := 0; i < 2; i++ {
		resp := tc.do("POST", "/v1/sessions/"+small.ID+"/runs",
			SubmitRunRequest{Config: ConfigJSON{MinPts: 5}, DeadlineMillis: 30, Wait: true}, nil)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("deadline run %d: status %d, want 504", i, resp.StatusCode)
		}
	}

	body := tc.metrics()
	if n := metricValue(body, "dbscand_job_queue_seconds_count"); n < 2 {
		t.Fatalf("queue histogram count = %v, want >= 2 (queued-and-died jobs must be recorded)", n)
	}
	// Two jobs each waited >= 30ms; with the seed bug (queue wait reported as
	// 0 on non-dispatch exits) this sum would be 0.
	if sum := metricValue(body, "dbscand_job_queue_seconds_sum"); sum < 0.06 {
		t.Fatalf("queue histogram sum = %v, want >= 0.06s", sum)
	}
}

// TestRetryAfterRounding pins the Retry-After computation to whole seconds,
// minimum 1.
func TestRetryAfterRounding(t *testing.T) {
	for _, tt := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"}, {200 * time.Millisecond, "1"}, {time.Second, "1"}, {1500 * time.Millisecond, "2"}, {3 * time.Second, "3"},
	} {
		s := New(Options{RetryAfter: tt.d})
		rec := httptest.NewRecorder()
		s.writeError(rec, http.StatusTooManyRequests, fmt.Errorf("full"))
		if got := rec.Header().Get("Retry-After"); got != tt.want {
			t.Errorf("RetryAfter %v: header %q, want %q", tt.d, got, tt.want)
		}
		s.Close()
	}
}
