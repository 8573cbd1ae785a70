// Package serve is the HTTP/JSON serving layer over engine.Engine: the piece
// that turns the job scheduler into a network service. It is session-oriented
// — a session owns a *pdbscan.Clusterer, *pdbscan.StreamingClusterer, or
// prebuilt *pdbscan.Hierarchy, so the eps-keyed cell structures, arenas, and
// incremental caches amortize across a client's requests exactly as they do
// across direct Run calls — and every run request becomes one engine job with
// the priority and deadline the request asked for.
//
// The engine's failure modes map to honest HTTP semantics:
//
//   - engine.ErrQueueFull  -> 429 Too Many Requests, with a Retry-After hint
//     (the bounded admission queue is the backpressure signal; clients back
//     off instead of piling on)
//   - engine.ErrQueueTimeout and context.DeadlineExceeded -> 504 Gateway
//     Timeout (the job's deadline — from the request's deadline_ms — or the
//     engine's queue-wait bound expired)
//   - validation errors (bad JSON, unknown fields, trailing data, null or
//     ragged point rows, bad Config, unknown method, eps mismatch) -> 400
//     Bad Request, rejected before the job occupies any queue slot
//   - a body over Options.MaxBodyBytes -> 413 Request Entity Too Large
//   - engine.ErrClosed and draining -> 503 Service Unavailable, with
//     Retry-After (graceful shutdown: this replica is going away)
//
// GET /metrics exposes a Prometheus-style text page built from Engine.Stats,
// per-session LastRunStats/StreamStats, and histograms of per-job queue and
// run latencies (fed by engine.JobStats, which records the true queue wait
// even for jobs that timed out, were cancelled, or were swept by Close).
//
// Graceful shutdown drains in order: Drain() stops admission (mutating
// requests get 503), then the caller shuts down its http.Server (in-flight
// handlers — including wait=true runs — finish), then Close() closes the
// engine (running jobs complete; still-queued async jobs complete with
// ErrClosed and report 503 on fetch). cmd/dbscand wires this to SIGTERM.
//
// # API
//
//	POST   /v1/sessions                 {kind, eps, dims|points, min_pts}  create a session
//	GET    /v1/sessions                 list session infos
//	GET    /v1/sessions/{id}            session info + last run stats
//	DELETE /v1/sessions/{id}            delete (cancels the session's pending runs)
//	POST   /v1/sessions/{id}/points     insert points (streaming sessions)
//	DELETE /v1/sessions/{id}/points     remove points by id (streaming sessions)
//	POST   /v1/sessions/{id}/window     evict down to n newest points (streaming sessions)
//	POST   /v1/sessions/{id}/runs       submit a run/tick/cut job {config, priority, deadline_ms, wait}
//	GET    /v1/sessions/{id}/runs/{rid} poll an async run (?wait=1 blocks until done)
//	DELETE /v1/sessions/{id}/runs/{rid} cancel-and-forget an async run
//	GET    /metrics                     Prometheus-style metrics
//	GET    /healthz                     200 serving / 503 draining
//
// A run request with wait=true executes in one round trip: the handler blocks
// on the job (tied to the HTTP request context, so a disconnecting client
// cancels its job) and returns the result inline, storing nothing. Async runs
// (the default) return 202 with a run id to poll; they are retained until
// fetched-and-deleted, deleted explicitly, or their session is deleted.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pdbscan"
	"pdbscan/engine"
)

// Options configures a Server. The zero value is usable: a default Engine
// (GOMAXPROCS budget), DefaultMaxSessions, a 1s Retry-After hint.
type Options struct {
	// Engine configures the job scheduler the server wraps (worker budget,
	// admission-queue bound, queue timeout).
	Engine engine.Options
	// MaxSessions bounds live sessions; creates beyond it get 429. <= 0
	// means DefaultMaxSessions.
	MaxSessions int
	// MaxBodyBytes bounds request bodies. <= 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// RetryAfter is the hint attached to 429 and 503 responses (rounded up
	// to whole seconds, minimum 1). <= 0 means 1s.
	RetryAfter time.Duration
}

const (
	// DefaultMaxSessions bounds live sessions when Options.MaxSessions is
	// not set.
	DefaultMaxSessions = 4096
	// DefaultMaxBodyBytes bounds request bodies when Options.MaxBodyBytes is
	// not set.
	DefaultMaxBodyBytes = 64 << 20
)

// Server is the HTTP serving layer. Create with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	eng        *engine.Engine
	mux        *http.ServeMux
	metrics    *metrics
	maxSess    int
	maxBody    int64
	retryAfter time.Duration

	mu       sync.Mutex
	sessions map[string]*session
	nextSess uint64
	draining bool
	snapDir  string // streaming snapshot directory ("" = disabled); see snapshot.go
}

// session is one client-owned run target plus its async runs.
type session struct {
	id      string
	kind    string // "batch", "streaming", or "hierarchy"
	eps     float64
	dims    int
	minPts  int // hierarchy sessions: the dendrogram's MinPts
	created time.Time

	clusterer *pdbscan.Clusterer
	streaming *pdbscan.StreamingClusterer
	hierarchy *pdbscan.Hierarchy

	mu      sync.Mutex
	runs    map[string]*run
	nextRun uint64
}

// run is one async engine job owned by a session.
type run struct {
	id     string
	job    *engine.Job
	cancel context.CancelFunc
}

// New returns a Server wrapping a fresh engine.Engine built from
// opts.Engine.
func New(opts Options) *Server {
	s := &Server{
		eng:        engine.New(opts.Engine),
		metrics:    newMetrics(),
		maxSess:    opts.MaxSessions,
		maxBody:    opts.MaxBodyBytes,
		retryAfter: opts.RetryAfter,
		sessions:   make(map[string]*session),
	}
	if s.maxSess <= 0 {
		s.maxSess = DefaultMaxSessions
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	if s.retryAfter <= 0 {
		s.retryAfter = time.Second
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/points", s.handleInsertPoints)
	mux.HandleFunc("DELETE /v1/sessions/{id}/points", s.handleRemovePoints)
	mux.HandleFunc("POST /v1/sessions/{id}/window", s.handleWindow)
	mux.HandleFunc("POST /v1/sessions/{id}/runs", s.handleSubmitRun)
	mux.HandleFunc("GET /v1/sessions/{id}/runs/{rid}", s.handleGetRun)
	mux.HandleFunc("DELETE /v1/sessions/{id}/runs/{rid}", s.handleDeleteRun)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	return s
}

// Engine returns the wrapped engine (for stats sampling and tests). The
// Server owns its lifecycle; do not Close it directly — use Server.Close.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Drain stops admission: session creation, streaming mutations, and run
// submissions return 503 with Retry-After. Read-only endpoints (session info,
// run fetch, /metrics) keep serving, so clients can collect results of jobs
// already in flight. Call before http.Server.Shutdown.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Close drains (if not already) and closes the engine: running jobs finish,
// still-queued jobs complete with ErrClosed (fetching them reports 503).
// Call after http.Server.Shutdown has returned, so no handler is mid-submit.
func (s *Server) Close() {
	s.Drain()
	s.eng.Close()
}

// ServeHTTP implements http.Handler, recording per-status response counts
// for /metrics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	s.metrics.countResponse(sw.code)
}

type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ---------------------------------------------------------------- JSON types

// CreateSessionRequest is the body of POST /v1/sessions.
type CreateSessionRequest struct {
	// Kind is "batch", "streaming", or "hierarchy".
	Kind string `json:"kind"`
	// Eps is the session's clustering radius (required, > 0). Every run on
	// the session uses it; for hierarchy sessions it is the build (maximum
	// queryable) radius.
	Eps float64 `json:"eps"`
	// Points are the coordinate rows for batch and hierarchy sessions
	// (required there). For streaming sessions they are optional initial
	// inserts.
	Points [][]float64 `json:"points,omitempty"`
	// Dims is the dimensionality for streaming sessions created without
	// initial points.
	Dims int `json:"dims,omitempty"`
	// MinPts is the dendrogram density threshold for hierarchy sessions
	// (required there, >= 1).
	MinPts int `json:"min_pts,omitempty"`
	// Workers caps the parallelism of a hierarchy session's build (0 = all).
	Workers int `json:"workers,omitempty"`
}

// SessionInfo describes a session.
type SessionInfo struct {
	ID        string  `json:"id"`
	Kind      string  `json:"kind"`
	Eps       float64 `json:"eps"`
	Dims      int     `json:"dims"`
	NumPoints int     `json:"num_points"`
	MinPts    int     `json:"min_pts,omitempty"`
	// PendingRuns counts stored async runs not yet deleted.
	PendingRuns int `json:"pending_runs"`
}

// ConfigJSON mirrors pdbscan.Config for run submissions. Eps may be 0 (the
// session's eps); for hierarchy sessions Eps is the cut radius and is
// required.
type ConfigJSON struct {
	Eps       float64 `json:"eps,omitempty"`
	MinPts    int     `json:"min_pts,omitempty"`
	Method    string  `json:"method,omitempty"`
	Rho       float64 `json:"rho,omitempty"`
	Bucketing bool    `json:"bucketing,omitempty"`
	Buckets   int     `json:"buckets,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	Shards    int     `json:"shards,omitempty"`

	// Sampled-core approximate mode (DBSCAN++): see pdbscan.Config.Sampler.
	// Batch sessions only: streaming runs reject a sampler, and hierarchy
	// runs ignore it (see engine.Request).
	Sampler    string  `json:"sampler,omitempty"`
	SampleFrac float64 `json:"sample_frac,omitempty"`
	SampleSeed int64   `json:"sample_seed,omitempty"`
}

func (c ConfigJSON) toConfig() pdbscan.Config {
	return pdbscan.Config{
		Eps: c.Eps, MinPts: c.MinPts, Method: pdbscan.Method(c.Method),
		Rho: c.Rho, Bucketing: c.Bucketing, Buckets: c.Buckets,
		Workers: c.Workers, Shards: c.Shards,
		Sampler: pdbscan.Sampler(c.Sampler), SampleFrac: c.SampleFrac,
		SampleSeed: c.SampleSeed,
	}
}

// SubmitRunRequest is the body of POST /v1/sessions/{id}/runs.
type SubmitRunRequest struct {
	Config ConfigJSON `json:"config"`
	// Priority orders queued jobs (higher first, FIFO within a priority).
	Priority int `json:"priority,omitempty"`
	// DeadlineMillis bounds the job's whole life (queue wait + run): the
	// submit context carries context.WithTimeout(deadline_ms). Expiry
	// reports 504. 0 means no deadline.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// Wait makes the submission synchronous: the response carries the
	// result (or the job's mapped error) and nothing is stored. The job is
	// additionally tied to the HTTP request context, so a disconnecting
	// client cancels it.
	Wait bool `json:"wait,omitempty"`
}

// JobStatsJSON mirrors engine.JobStats.
type JobStatsJSON struct {
	Workers  int   `json:"workers"`
	QueuedNS int64 `json:"queued_ns"`
	RunNS    int64 `json:"run_ns"`
}

// ResultJSON is a clustering result on the wire.
type ResultJSON struct {
	NumClusters int     `json:"num_clusters"`
	NumNoise    int     `json:"num_noise"`
	Labels      []int32 `json:"labels"`
	Core        []bool  `json:"core"`
	// IDs aligns rows with streaming point ids (streaming sessions only).
	IDs []int64 `json:"ids,omitempty"`
}

// RunStatus is the state of a run: pending, done (with result + stats), or
// failed (with the error and its mapped status code as the HTTP status).
type RunStatus struct {
	ID     string        `json:"id,omitempty"`
	State  string        `json:"state"` // "pending", "done", "failed"
	Error  string        `json:"error,omitempty"`
	Result *ResultJSON   `json:"result,omitempty"`
	Stats  *JobStatsJSON `json:"stats,omitempty"`
}

// InsertPointsRequest is the body of POST /v1/sessions/{id}/points.
type InsertPointsRequest struct {
	Points [][]float64 `json:"points"`
}

// RemovePointsRequest is the body of DELETE /v1/sessions/{id}/points.
type RemovePointsRequest struct {
	IDs []int64 `json:"ids"`
}

// WindowRequest is the body of POST /v1/sessions/{id}/window.
type WindowRequest struct {
	N int `json:"n"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ------------------------------------------------------------- error mapping

// submitStatus maps an Engine.Submit (or pre-submit validation) error to its
// HTTP status: the admission-time failure modes.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, engine.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The request's deadline_ms expired before the job was even
		// admitted (Submit checks ctx up front).
		return http.StatusGatewayTimeout
	default:
		// Everything else Submit returns is validation-shaped
		// (ErrBadRequest, ValidateConfig, Config.Validate, ValidateEps).
		return http.StatusBadRequest
	}
}

// jobStatus maps a completed job's error to its HTTP status: the
// post-admission failure modes.
func jobStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, engine.ErrQueueTimeout),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, engine.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.setRetryAfter(w, status)
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// setRetryAfter sets the Retry-After hint, in whole seconds rounded up, on
// the statuses that ask a client to come back later: 429 (queue full) and
// 503 (draining or closed).
func (s *Server) setRetryAfter(w http.ResponseWriter, status int) {
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		return
	}
	secs := max(1, int((s.retryAfter+time.Second-1)/time.Second))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is already out; nothing to map an error to
}

// decodeJSON strictly decodes the request body into v (unknown fields are a
// 400 — a typoed field silently ignored is a config that did not do what the
// client asked — and so is anything but whitespace after the value).
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// bodyStatus maps a request-body error to its status: 413 when the body
// outgrew MaxBodyBytes, 400 otherwise.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// ----------------------------------------------------------------- sessions

// refuseCreateLocked reports why a session create must be refused now, if
// it must: 503 while draining, 429 at the session limit. The caller holds
// s.mu.
func (s *Server) refuseCreateLocked() (int, error) {
	if s.draining {
		return http.StatusServiceUnavailable, errors.New("server draining")
	}
	if len(s.sessions) >= s.maxSess {
		return http.StatusTooManyRequests, fmt.Errorf("session limit reached (%d); delete one or retry later", s.maxSess)
	}
	return 0, nil
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	// Refuse before reading the body: a create against a draining or full
	// server must not pay for the parse and the build.
	s.mu.Lock()
	status, err := s.refuseCreateLocked()
	s.mu.Unlock()
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	var req CreateSessionRequest
	pts, err := s.readPoints(r, &req)
	if err != nil {
		s.writeError(w, bodyStatus(err), err)
		return
	}

	sess := &session{kind: req.Kind, eps: req.Eps, created: time.Now(), runs: make(map[string]*run)}
	switch req.Kind {
	case "batch":
		c, err := newClusterer(pts, req.Eps)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		sess.clusterer = c
		sess.dims = c.Dims()
	case "streaming":
		dims := req.Dims
		if dims == 0 && pts.n > 0 {
			dims = pts.dims
		}
		sc, err := pdbscan.NewStreamingClusterer(dims, req.Eps)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		if _, err := insertPoints(sc, pts); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		sess.streaming = sc
		sess.dims = dims
	case "hierarchy":
		c, err := newClusterer(pts, req.Eps)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		// The build is synchronous and parallelizes under req.Workers; a
		// disconnecting client cancels it.
		h, err := c.BuildHierarchyContext(r.Context(), pdbscan.Config{MinPts: req.MinPts, Workers: req.Workers})
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			}
			s.writeError(w, status, err)
			return
		}
		sess.hierarchy = h
		sess.minPts = req.MinPts
		sess.dims = c.Dims()
	default:
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown session kind %q (want batch, streaming, or hierarchy)", req.Kind))
		return
	}

	// Again under the lock that inserts: concurrent creates race past the
	// first check.
	s.mu.Lock()
	if status, err := s.refuseCreateLocked(); err != nil {
		s.mu.Unlock()
		s.writeError(w, status, err)
		return
	}
	s.nextSess++
	sess.id = "s" + strconv.FormatUint(s.nextSess, 10)
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	writeJSON(w, http.StatusCreated, s.infoOf(sess))
}

// newClusterer builds a batch or hierarchy session's Clusterer, which keeps
// the request's flat points without copying them.
func newClusterer(pts flatPoints, eps float64) (*pdbscan.Clusterer, error) {
	if pts.n == 0 {
		return nil, errors.New("batch and hierarchy sessions need points")
	}
	return pdbscan.NewClustererFlat(pts.data, pts.dims, eps)
}

// insertPoints inserts a request's points into a streaming session. Rows
// must have the session's dims: InsertFlat alone would re-chunk the flat
// coordinates into rows of its own length.
func insertPoints(sc *pdbscan.StreamingClusterer, pts flatPoints) ([]int64, error) {
	if pts.n == 0 {
		return []int64{}, nil
	}
	if pts.dims != sc.Dims() {
		return nil, fmt.Errorf("points rows have %d coords, want %d", pts.dims, sc.Dims())
	}
	return sc.InsertFlat(pts.data)
}

func (s *Server) infoOf(sess *session) SessionInfo {
	info := SessionInfo{
		ID: sess.id, Kind: sess.kind, Eps: sess.eps, Dims: sess.dims, MinPts: sess.minPts,
	}
	switch sess.kind {
	case "batch":
		info.NumPoints = sess.clusterer.NumPoints()
	case "streaming":
		info.NumPoints = sess.streaming.Len()
	case "hierarchy":
		info.NumPoints = sess.hierarchy.NumPoints()
	}
	sess.mu.Lock()
	info.PendingRuns = len(sess.runs)
	sess.mu.Unlock()
	return info
}

// sessionOf resolves the {id} path value, writing a 404 and returning nil if
// it names no live session.
func (s *Server) sessionOf(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return nil
	}
	return sess
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.mu.Unlock()
	infos := make([]SessionInfo, 0, len(all))
	for _, sess := range all {
		infos = append(infos, s.infoOf(sess))
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionOf(w, r)
	if sess == nil {
		return
	}
	writeJSON(w, http.StatusOK, s.infoOf(sess))
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return
	}
	// Cancel the session's pending async runs: their jobs dequeue (or unwind
	// mid-run) and their watcher goroutines record final stats.
	sess.mu.Lock()
	for _, rn := range sess.runs {
		rn.cancel()
	}
	sess.runs = make(map[string]*run)
	sess.mu.Unlock()
	if sess.kind == "streaming" {
		s.removeSnapshot(sess.id) // a deleted session must not resurrect on reboot
	}
	w.WriteHeader(http.StatusNoContent)
}

// ------------------------------------------------------ streaming mutations

// streamingOf is sessionOf plus the kind check shared by the mutation
// endpoints.
func (s *Server) streamingOf(w http.ResponseWriter, r *http.Request) *session {
	sess := s.sessionOf(w, r)
	if sess == nil {
		return nil
	}
	if sess.kind != "streaming" {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("session %s is %s; points mutations need a streaming session", sess.id, sess.kind))
		return nil
	}
	return sess
}

func (s *Server) handleInsertPoints(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.writeError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	sess := s.streamingOf(w, r)
	if sess == nil {
		return
	}
	pts, err := s.readPoints(r, &InsertPointsRequest{})
	if err != nil {
		s.writeError(w, bodyStatus(err), err)
		return
	}
	ids, err := insertPoints(sess.streaming, pts)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ids": ids})
}

func (s *Server) handleRemovePoints(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.writeError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	sess := s.streamingOf(w, r)
	if sess == nil {
		return
	}
	var req RemovePointsRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, bodyStatus(err), err)
		return
	}
	if err := sess.streaming.Remove(req.IDs...); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": len(req.IDs)})
}

func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.writeError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	sess := s.streamingOf(w, r)
	if sess == nil {
		return
	}
	var req WindowRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, bodyStatus(err), err)
		return
	}
	evicted := sess.streaming.Window(req.N)
	if evicted == nil {
		evicted = []int64{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"evicted": evicted})
}

// -------------------------------------------------------------------- runs

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.writeError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	sess := s.sessionOf(w, r)
	if sess == nil {
		return
	}
	var req SubmitRunRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, bodyStatus(err), err)
		return
	}
	er := engine.Request{Config: req.Config.toConfig(), Priority: req.Priority}
	switch sess.kind {
	case "batch":
		er.Clusterer = sess.clusterer
	case "streaming":
		er.Streaming = sess.streaming
	case "hierarchy":
		er.Hierarchy = sess.hierarchy
	}

	// The submit context: background for async runs (the job outlives this
	// handler), the request context for wait runs (a gone client cancels its
	// job), with the request's deadline layered on either.
	base := context.Background()
	if req.Wait {
		base = r.Context()
	}
	// Always cancellable, so deleting the run (or its session) can unwind a
	// queued or running job, not just deadline expiry.
	var ctx context.Context
	var cancel context.CancelFunc
	if req.DeadlineMillis > 0 {
		ctx, cancel = context.WithTimeout(base, time.Duration(req.DeadlineMillis)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(base)
	}

	job, err := s.eng.Submit(ctx, er)
	if err != nil {
		cancel()
		s.writeError(w, submitStatus(err), err)
		return
	}

	if req.Wait {
		<-job.Done()
		s.metrics.recordJob(job)
		cancel()
		s.writeRunStatus(w, "", sess, job)
		return
	}

	sess.mu.Lock()
	sess.nextRun++
	rn := &run{
		id:     "r" + strconv.FormatUint(sess.nextRun, 10),
		job:    job,
		cancel: cancel,
	}
	sess.runs[rn.id] = rn
	sess.mu.Unlock()
	// The watcher releases the deadline timer and feeds the latency
	// histograms as soon as the job settles, fetched or not.
	go func() {
		<-job.Done()
		cancel()
		s.metrics.recordJob(job)
	}()
	writeJSON(w, http.StatusAccepted, RunStatus{ID: rn.id, State: "pending"})
}

// writeRunStatus renders a settled job: 200 + result on success, the mapped
// error status otherwise.
func (s *Server) writeRunStatus(w http.ResponseWriter, id string, sess *session, job *engine.Job) {
	st := job.Stats()
	stats := &JobStatsJSON{Workers: st.Workers, QueuedNS: st.Queued.Nanoseconds(), RunNS: st.Run.Nanoseconds()}
	if err := job.Err(); err != nil {
		status := jobStatus(err)
		s.setRetryAfter(w, status)
		writeJSON(w, status, RunStatus{ID: id, State: "failed", Error: err.Error(), Stats: stats})
		return
	}
	var rj *ResultJSON
	if sess.kind == "streaming" {
		sr, _ := job.StreamResult()
		rj = &ResultJSON{
			NumClusters: sr.NumClusters, NumNoise: sr.NumNoise(),
			Labels: sr.Labels, Core: sr.Core, IDs: sr.IDs,
		}
	} else {
		res, _ := job.Result()
		rj = &ResultJSON{
			NumClusters: res.NumClusters, NumNoise: res.NumNoise(),
			Labels: res.Labels, Core: res.Core,
		}
	}
	writeJSON(w, http.StatusOK, RunStatus{ID: id, State: "done", Result: rj, Stats: stats})
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionOf(w, r)
	if sess == nil {
		return
	}
	rid := r.PathValue("rid")
	sess.mu.Lock()
	rn := sess.runs[rid]
	sess.mu.Unlock()
	if rn == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no run %q in session %s", rid, sess.id))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-rn.job.Done():
		case <-r.Context().Done():
			// The client gave up; the job keeps running for a later poll.
			s.writeError(w, http.StatusGatewayTimeout, r.Context().Err())
			return
		}
	}
	select {
	case <-rn.job.Done():
		s.writeRunStatus(w, rn.id, sess, rn.job)
	default:
		writeJSON(w, http.StatusOK, RunStatus{ID: rn.id, State: "pending"})
	}
}

func (s *Server) handleDeleteRun(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionOf(w, r)
	if sess == nil {
		return
	}
	rid := r.PathValue("rid")
	sess.mu.Lock()
	rn := sess.runs[rid]
	delete(sess.runs, rid)
	sess.mu.Unlock()
	if rn == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no run %q in session %s", rid, sess.id))
		return
	}
	rn.cancel() // dequeue or unwind; the watcher still records its stats
	w.WriteHeader(http.StatusNoContent)
}

// ------------------------------------------------------------------- health

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
