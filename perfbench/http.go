package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pdbscan"
	"pdbscan/serve"
)

const (
	httpPoints  = 200_000
	httpEps     = 1000.0
	httpMinPts  = 100
	httpClients = 2 // closed-loop clients; no more than the host's CPUs
	httpSetups  = 5 // set-ups per run; setup_s is their median
)

// exchangeSpec is what every exchange sends and expects back.
type exchangeSpec struct {
	createBody []byte // POST /v1/sessions, pre-encoded
	runBody    []byte // POST /v1/sessions/{id}/runs with wait, pre-encoded
	wantResult []byte // the run response's result object, encoded from the reference
	ref        clustering
}

func runHTTP(b *bench) error {
	n := b.size(httpPoints, 5_000)
	pts := vardenMix(n, 2, b.seed)
	shuffleRows(pts, uint64(b.seed))
	b.prov["dataset"] = "ss-varden-2d, fixed density mix, rows shuffled"
	b.prov["n"], b.prov["d"], b.prov["eps"], b.prov["min_pts"] = n, pts.D, httpEps, httpMinPts
	b.prov["clients"] = httpClients

	// Reference: a direct Clusterer.Run on the same points.
	c, err := pdbscan.NewClustererFlat(pts.Data, pts.D, httpEps)
	if err != nil {
		return err
	}
	res, err := c.Run(pdbscan.Config{MinPts: httpMinPts})
	if err != nil {
		return err
	}
	x := &exchangeSpec{ref: fromResult(res)}
	rows := make([][]float64, pts.N)
	for i := range rows {
		rows[i] = pts.At(i)
	}
	if x.createBody, err = json.Marshal(serve.CreateSessionRequest{Kind: "batch", Eps: httpEps, Points: rows}); err != nil {
		return err
	}
	if x.runBody, err = json.Marshal(serve.SubmitRunRequest{Config: serve.ConfigJSON{MinPts: httpMinPts}, Wait: true}); err != nil {
		return err
	}
	if x.wantResult, err = json.Marshal(serve.ResultJSON{
		NumClusters: res.NumClusters, NumNoise: res.NumNoise(), Labels: res.Labels, Core: res.Core,
	}); err != nil {
		return err
	}
	c, res, rows = nil, nil, nil

	var srv *server
	setups, segment := b.plan(httpSetups)
	for i := 0; i < setups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		srv = nil
		freshHeap()
		start := time.Now()
		srv, err = startServer()
		if err != nil {
			return err
		}
		_, err := srv.exchange(x, nil)
		b.setupDone(start)
		if err != nil {
			b.problem("warm-up exchange: %v", err)
		}
	}
	defer srv.stop()

	m0 := readMem()
	ops := b.clients(srv, x, segment, false)
	b.perOp(m0, readMem(), ops)
	if b.trace {
		b.clients(srv, x, b.tracedSegment(), true)
		b.count("core.clusters", float64(x.ref.clusters))
		b.count("core.core_points", float64(countTrue(x.ref.core)))
		b.count("serve.request_mb", mib(int64(len(x.createBody)+len(x.runBody))))
		b.count("serve.response_mb", mib(int64(len(x.wantResult))))
	}
	return nil
}

// clients runs httpClients closed loops of exchanges until d has passed and
// returns the number of exchanges attempted.
func (b *bench) clients(srv *server, x *exchangeSpec, d time.Duration, traced bool) int {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	var total atomic.Int64
	for range httpClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ops := 0; ops == 0 || time.Now().Before(deadline); ops++ {
				var at *tracerAt
				if traced {
					at = b.tr.op("op")
				}
				lat, err := srv.exchange(x, at)
				if traced {
					lat = at.end()
				}
				b.opDone(traced, lat, err)
				total.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(total.Load())
}

// server is one serve.Server on a loopback listener plus the client that
// talks to it.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	base   string
	client *http.Client
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  serve.New(serve.Options{}),
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: httpClients, MaxConnsPerHost: httpClients, DisableCompression: true,
		}},
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the server, shuts the listener down, closes the engine and
// waits for the serving goroutine to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Drain()
	err := s.hs.Shutdown(ctx)
	s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// do sends one request and reads the whole response; the duration runs from
// the send to the last byte of the response.
func (s *server) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, time.Since(start), err
}

// exchange runs one create, run, delete sequence and returns the sum of the
// three request times. Decoding and checking the responses happen between
// the timed requests. Traced (at non-nil), every request gets a span, the
// run request gets the engine's queue and run times from its stats as
// children, and the untimed work gets bench spans.
func (s *server) exchange(x *exchangeSpec, at *tracerAt) (time.Duration, error) {
	request := func(name, method, path string, body []byte, want int) (raw []byte, d time.Duration, span int, err error) {
		var status int
		span = at.call(name, func() { status, raw, d, err = s.do(method, path, body) })
		if err == nil && status != want {
			err = fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, status, want, raw)
		}
		return raw, d, span, err
	}

	raw, create, _, err := request("serve.create", http.MethodPost, "/v1/sessions", x.createBody, http.StatusCreated)
	if err != nil {
		return 0, err
	}
	var info serve.SessionInfo
	at.untimed(func() { err = json.Unmarshal(raw, &info) })
	if err != nil {
		return 0, fmt.Errorf("decode session: %w", err)
	}
	raw, run, runSpan, err := request("serve.run", http.MethodPost, "/v1/sessions/"+info.ID+"/runs", x.runBody, http.StatusOK)
	var stats serve.JobStatsJSON
	if err == nil {
		at.untimed(func() { err = checkRun(raw, x, &stats) })
	}
	if err == nil && at != nil {
		at.tr.child(runSpan, "engine.queue", kindStats, 0, time.Duration(stats.QueuedNS))
		at.tr.child(runSpan, "engine.run", kindStats, time.Duration(stats.QueuedNS), time.Duration(stats.RunNS))
	}
	// Delete the session even after a failed run, so sessions never pile up.
	_, del, _, derr := request("serve.delete", http.MethodDelete, "/v1/sessions/"+info.ID, nil, http.StatusNoContent)
	if err == nil {
		err = derr
	}
	return create + run + del, err
}

// checkRun checks a run response against the reference and extracts its
// stats. The result object is compared byte for byte with the reference's
// encoding; only when that differs is it decoded and compared up to a
// relabeling.
func checkRun(raw []byte, x *exchangeSpec, stats *serve.JobStatsJSON) error {
	var st serve.RunStatus
	const key = `"result":`
	i := bytes.Index(raw, []byte(key))
	if i < 0 {
		return fmt.Errorf("run response has no result: %.200s", raw)
	}
	body := raw[i+len(key):]
	if !bytes.HasPrefix(body, x.wantResult) {
		if err := json.Unmarshal(raw, &st); err != nil {
			return fmt.Errorf("decode run: %w", err)
		}
		if st.Result == nil {
			return fmt.Errorf("run response has no result")
		}
		if err := sameClustering(clustering{st.Result.Labels, st.Result.Core, nil, st.Result.NumClusters}, x.ref); err != nil {
			return err
		}
	}
	const statsKey = `"stats":`
	j := bytes.LastIndex(raw, []byte(statsKey))
	if j < 0 {
		return fmt.Errorf("run response has no stats")
	}
	return json.NewDecoder(bytes.NewReader(raw[j+len(statsKey):])).Decode(stats)
}
