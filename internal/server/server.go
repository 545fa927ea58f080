// Package server is the multi-tenant campaign service: a REST API
// that accepts config.Scenario specs, runs each as a simulated thermal
// campaign on a bounded worker pool, streams live telemetry over SSE,
// and persists per-job artifacts (a .tct trace and a JSON report) to a
// disk store.
//
// Lifecycle: POST /v1/jobs validates the spec and enqueues a Job
// (FIFO, bounded — a full queue refuses with 429). A pool of N workers
// drains the queue; each job builds its rig, runs the program or a
// generator-driven loop with per-job context cancellation, and lands
// in one terminal state: done, failed or canceled. DELETE cancels —
// immediately when still queued, at the next simulation round when
// running. GET /v1/jobs/{id}/stream serves live samples and fault /
// fail-safe events; GET .../trace and .../report serve the artifacts.
package server

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/metrics"
	"thermctl/internal/report"
	"thermctl/internal/workload"
)

// Config sizes and wires a Server.
type Config struct {
	// Workers is the number of concurrent campaigns. Default 4.
	Workers int
	// QueueDepth bounds the FIFO backlog beyond the running jobs; a
	// submission past the bound is refused with 429. Default 64.
	QueueDepth int
	// Dir is the artifact store root. Required.
	Dir string
	// Registry, when non-nil, receives the server's instruments.
	Registry *metrics.Registry
	// SampleEvery is the trace and stream cadence in simulated time.
	// Default 1s.
	SampleEvery time.Duration
	// GeneratorHorizon bounds generator-driven (programless) jobs that
	// have no chaos horizon of their own. Default 60s of simulated
	// time.
	GeneratorHorizon time.Duration
	// ScenarioDir is the scenario library that submitted documents may
	// compose from with "extends". Empty (the default) refuses extends:
	// a client must not be able to read arbitrary server files by
	// naming them as bases.
	ScenarioDir string
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = time.Second
	}
	if c.GeneratorHorizon <= 0 {
		c.GeneratorHorizon = 60 * time.Second
	}
}

// Server runs campaigns for API clients. Construct with New, serve
// Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	store *Store
	m     *srvMetrics

	// baseCtx parents every job context and every SSE handler's wait;
	// canceling it is the force-stop lever.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	seq        atomic.Uint64

	// mu guards the job table and the queue's accepting side: draining
	// flips and close(queue) happen under mu, so a submission holding
	// mu can never send on a closed channel.
	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	queue    chan *Job
	draining bool

	// hookRunning, when set by a test, is called from the worker as a
	// job flips to running, before execution starts. It lets tests
	// park workers deterministically to fill the queue.
	hookRunning func(*Job)
}

// New builds the server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	store, err := NewStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      store,
		m:          newSrvMetrics(cfg.Registry),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		queue:      make(chan *Job, cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// newID mints a job identifier: a monotonic sequence number plus a
// random suffix so ids never collide with a prior run's artifacts.
func (s *Server) newID() string {
	var buf [4]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back
		// to the sequence alone rather than refusing work.
		return fmt.Sprintf("j%06d", s.seq.Add(1))
	}
	return fmt.Sprintf("j%06d-%08x", s.seq.Add(1), binary.BigEndian.Uint32(buf[:]))
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The response writer owns delivery errors; nothing to do here.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxSpecBytes bounds a submitted scenario document; a longer body is
// refused with 413 rather than read as a truncated prefix.
const maxSpecBytes = 1 << 20

// handleSubmit validates and enqueues one campaign.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := config.ReadScenarioDir(http.MaxBytesReader(w, r.Body, maxSpecBytes), s.cfg.ScenarioDir)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.m.rejected[rejectTooLarge].Inc()
		writeError(w, http.StatusRequestEntityTooLarge, "scenario document over %d bytes", tooLarge.Limit)
		return
	}
	if err != nil {
		s.m.rejected[rejectInvalid].Inc()
		writeError(w, http.StatusBadRequest, "invalid scenario: %v", err)
		return
	}
	// A programless scenario with no workload plane runs the historical
	// server default: per-node cpu-burn. Setting it here (rather than
	// inside execute) persists the effective workload in the job's
	// scenario.json artifact.
	if spec.Program == "" && !spec.HasWorkload() {
		spec.Workload = &workload.Spec{Kind: workload.KindCPUBurn}
	}

	id := s.newID()
	dir, err := s.store.JobDir(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := writeScenarioFile(s.store.ScenarioPath(id), spec); err != nil {
		writeError(w, http.StatusInternalServerError, "persist scenario: %v", err)
		return
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	job := &Job{
		id:        id,
		scenario:  spec,
		ctx:       ctx,
		cancel:    cancel,
		hub:       newHub(s.m.streamDropped),
		dir:       dir,
		state:     StateQueued,
		submitted: time.Now(),
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		s.m.rejected[rejectDraining].Inc()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		cancel()
		s.m.rejected[rejectQueue].Inc()
		// Drop the provisional artifact dir: the job never existed.
		if err := os.RemoveAll(dir); err != nil {
			writeError(w, http.StatusTooManyRequests,
				"queue full (%d waiting); artifact cleanup also failed: %v", s.cfg.QueueDepth, err)
			return
		}
		writeError(w, http.StatusTooManyRequests, "queue full (%d jobs waiting)", s.cfg.QueueDepth)
		return
	}
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.m.submitted.Inc()
	s.m.queueDepth.Add(1)
	writeJSON(w, http.StatusAccepted, job.view())
}

// writeScenarioFile persists the normalized spec as the job's
// scenario.json artifact.
func writeScenarioFile(path string, spec config.Scenario) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// listBody is the GET /v1/jobs envelope.
type listBody struct {
	Jobs []View `json:"jobs"`
}

// handleList returns every job in submission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	body := listBody{Jobs: make([]View, 0, len(jobs))}
	for _, j := range jobs {
		body.Jobs = append(body.Jobs, j.view())
	}
	writeJSON(w, http.StatusOK, body)
}

// lookup fetches a job by the request's id path value, writing a 404
// on a miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
	}
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.view())
	}
}

// handleCancel cancels a queued or running job; canceling a terminal
// job is a conflict.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if j.State().Terminal() {
		writeError(w, http.StatusConflict, "job %s already %s", j.ID(), j.State())
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, j.view())
}

// handleTrace serves the job's .tct trace artifact.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.serveArtifact(w, r, s.store.TracePath, "application/octet-stream")
}

// handleReport serves the job's JSON report artifact.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.serveArtifact(w, r, s.store.ReportPath, "application/json")
}

func (s *Server) serveArtifact(w http.ResponseWriter, r *http.Request, path func(string) string, ctype string) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if !j.State().Terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; artifacts appear when it finishes", j.ID(), j.State())
		return
	}
	p := path(j.ID())
	if _, err := os.Stat(p); err != nil {
		writeError(w, http.StatusNotFound, "job %s produced no such artifact", j.ID())
		return
	}
	w.Header().Set("Content-Type", ctype)
	http.ServeFile(w, r, p)
}

// handleStream serves the job's live telemetry as Server-Sent Events:
// "state" on subscribe and at the end, "sample" / "fault" / "failsafe"
// while the campaign runs.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming needs a flushable connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")

	sub := j.hub.subscribe()
	if sub == nil {
		// Terminal before we subscribed: the stream is just the final
		// state record.
		writeSSE(w, "state", mustJSON(j.view()))
		fl.Flush()
		return
	}
	defer j.hub.unsubscribe(sub)
	s.m.streamClients.Add(1)
	defer s.m.streamClients.Add(-1)

	writeSSE(w, "state", mustJSON(j.view()))
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		case ev, ok := <-sub:
			if !ok {
				// Hub closed: the job is terminal. Finish with the
				// final state.
				writeSSE(w, "state", mustJSON(j.view()))
				fl.Flush()
				return
			}
			writeSSE(w, ev.kind, ev.data)
			fl.Flush()
		}
	}
}

// writeSSE frames one Server-Sent Event.
func writeSSE(w io.Writer, kind string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", kind, data)
}

// mustJSON marshals values that cannot fail (plain structs of strings
// and numbers).
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"encode"}`)
	}
	return data
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.m.queueDepth.Add(-1)
		s.runJob(j)
	}
}

// runJob takes one dequeued job through execution to a terminal state.
func (s *Server) runJob(j *Job) {
	if !j.markRunning() {
		// Canceled while queued.
		s.m.finished[StateCanceled].Inc()
		j.hub.close()
		return
	}
	if s.hookRunning != nil {
		s.hookRunning(j)
	}
	s.m.running.Add(1)
	start := metrics.Now()
	sum, err := s.execute(j)
	st := StateDone
	switch {
	case err != nil:
		st = StateFailed
	case sum != nil && sum.Canceled:
		st = StateCanceled
	}
	j.finish(st, err, sum)
	s.m.running.Add(-1)
	s.m.jobSeconds.ObserveSince(start)
	s.m.finished[st].Inc()
	j.hub.close()
}

// execute builds and runs one campaign, writing the trace and report
// artifacts. The returned summary is non-nil whenever the simulation
// ran, even if canceled part-way.
func (s *Server) execute(j *Job) (*report.CampaignSummary, error) {
	rig, err := j.scenario.Build()
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	c := rig.Cluster
	c.SetStop(j.ctx.Done())

	tf, err := os.Create(s.store.TracePath(j.id))
	if err != nil {
		return nil, fmt.Errorf("trace artifact: %w", err)
	}
	tw, err := config.AttachTraceProbe(c, tf, s.cfg.SampleEvery)
	if err != nil {
		tf.Close()
		return nil, fmt.Errorf("trace probe: %w", err)
	}

	// The stream probe joins the serial post phase alongside the trace
	// probe, so both observe the same step boundaries.
	c.AddController(newStreamProbe(rig, j.hub, s.cfg.SampleEvery, s.m.encodeErrs))

	var res cluster.RunResult
	if rig.Program != nil {
		res = c.RunProgram(*rig.Program, 0)
	} else {
		// Generator-driven job: the rig carries one generator per node
		// (handleSubmit defaults the workload plane for programless
		// scenarios), and cancellation rides the SetStop signal above.
		horizon := rig.ChaosHorizon
		if horizon <= 0 {
			horizon = s.cfg.GeneratorHorizon
		}
		res = c.RunGenerators(rig.Generators, horizon)
	}

	twErr := tw.Close()
	tfErr := tf.Close()
	if res.Err != nil {
		return nil, fmt.Errorf("run: %w", res.Err)
	}
	if twErr != nil {
		return nil, fmt.Errorf("trace close: %w", twErr)
	}
	if tfErr != nil {
		return nil, fmt.Errorf("trace file: %w", tfErr)
	}

	sum := report.SummarizeCampaign(rig, res)
	if err := writeReportFile(s.store.ReportPath(j.id), sum); err != nil {
		return sum, fmt.Errorf("report artifact: %w", err)
	}
	return sum, nil
}

// writeReportFile persists the report.json artifact.
func writeReportFile(path string, sum *report.CampaignSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sum.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cancelAll cancels every job's context.
func (s *Server) cancelAll() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
}

// ErrShutdownForced reports that Shutdown's context expired and the
// remaining campaigns were canceled rather than drained.
var ErrShutdownForced = errors.New("server: shutdown deadline hit; remaining jobs canceled")

// Shutdown stops the server: intake closes immediately (new
// submissions get 503), then the worker pool drains — queued and
// running jobs finish normally. If ctx expires first, every remaining
// job is canceled and Shutdown returns ErrShutdownForced once the
// workers exit. Either way, SSE handlers are released.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.cancelAll()
		s.baseCancel()
		<-done
		return ErrShutdownForced
	}
}
