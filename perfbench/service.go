package main

// The service workload: the campaign server on an httptest listener
// with two workers, driven by two closed-loop clients the way
// `thermq submit -wait` plus `watch` drives it. Each operation submits
// the next document of the seeded mix, reads the job's SSE stream to
// its final frame, fetches the report (the latency sample ends here),
// then fetches the trace and summarizes it.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermctl/internal/config"
	"thermctl/internal/metrics"
	"thermctl/internal/report"
	"thermctl/internal/server"
	"thermctl/internal/tracefile"
)

const (
	serviceClients = 2
	serviceWorkers = 2
	// scenarioDir is the gallery the submitted documents extend,
	// relative to the repository root the benchmark runs from.
	scenarioDir = "examples"
	// serviceHeapOps is the campaigns peak_heap_mb covers: about half a
	// 30 s run on a 2-vCPU host. The server keeps every job's record,
	// so its heap grows with the campaigns completed.
	serviceHeapOps = 2000
)

// galleryBases are the gallery files the small documents extend.
var galleryBases = []string{
	"loadshape-random.json", "loadshape-diurnal.json", "loadshape-flashcrowd.json",
	"loadshape-steps.json", "fleet-base.json", "hetero-fleet.json",
}

// mixBlock is one block of the submission sequence: every block of ten
// holds the same kinds, in a seeded order, so the mix's proportions do
// not depend on the seed or the run length.
var mixBlock = []string{"extends", "extends", "extends", "extends", "extends", "sleep", "bt", "bt", "lu", "lu"}

// svcDoc is one submitted document and the node count its report must
// carry.
type svcDoc struct {
	body  []byte
	nodes int
}

// serviceDoc generates document i of the seed's submission sequence.
func serviceDoc(seed uint64, i int, galleryNodes map[string]int) svcDoc {
	block := uint64(i / len(mixBlock))
	r := rand.New(rand.NewPCG(seed, 0x73766300+block))
	order := r.Perm(len(mixBlock))
	// Draw every slot's parameters so slot k's draws do not depend on
	// the permutation.
	var kind string
	var base string
	var pp int
	var docSeed uint64
	for k := 0; k <= i%len(mixBlock); k++ {
		kind = mixBlock[order[k]]
		base = galleryBases[r.IntN(len(galleryBases))]
		pp = []int{25, 50, 75}[r.IntN(3)]
		docSeed = r.Uint64()>>1 | 1
	}
	name := fmt.Sprintf("perfbench-%d", i)
	var doc map[string]any
	var nodes int
	switch kind {
	case "extends":
		doc = map[string]any{"extends": base, "name": name, "seed": docSeed, "workers": 1}
		nodes = galleryNodes[base]
	case "sleep":
		doc = map[string]any{"extends": "cluster-sleep.json", "name": name, "seed": docSeed, "workers": 1}
		nodes = galleryNodes["cluster-sleep.json"]
	default:
		doc = map[string]any{"name": name, "nodes": 4, "seed": docSeed, "workers": 1, "program": kind,
			"control": map[string]any{"fan": "dynamic", "dvfs": "tdvfs", "tuning": map[string]any{"pp": pp}}}
		nodes = 4
	}
	body, err := json.Marshal(doc)
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	return svcDoc{body, nodes}
}

// jobTimes is what a traced block records per job.
type jobTimes struct {
	queue, exec         time.Duration
	frames, streamBytes int
	traceBytes          int
}

type service struct {
	env     *env
	dir     string
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	gallery map[string]int
	// next is the index of the next document to submit.
	next atomic.Int64
	// warm is the warm-up job's report digest.
	warm string

	mu   sync.Mutex
	jobs []jobTimes
	// dropped0 and rejected0 are the server's counters after the
	// warm-up.
	dropped0, rejected0 float64
}

func setupService(e *env, _ *recorder) (instance, error) {
	gallery := map[string]int{}
	for _, f := range append([]string{"cluster-sleep.json"}, galleryBases...) {
		sc, err := config.LoadScenario(filepath.Join(scenarioDir, f))
		if err != nil {
			return nil, err
		}
		gallery[f] = sc.Nodes
	}
	dir, err := os.MkdirTemp(outDir, "service-")
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	srv, err := server.New(server.Config{Workers: serviceWorkers, Dir: dir, Registry: reg, ScenarioDir: scenarioDir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	mux := metrics.NewServeMux(reg)
	mux.Handle("/v1/", srv.Handler())
	s := &service{env: e, dir: dir, srv: srv, gallery: gallery}
	s.ts = httptest.NewServer(mux)
	s.client = s.ts.Client()
	// The warm-up campaign is the same kind on every seed, so set-up
	// time does not depend on where the seeded mix starts.
	warm, err := json.Marshal(map[string]any{"extends": "cluster-sleep.json", "name": "perfbench-warmup",
		"seed": e.seed, "workers": 1})
	if err != nil {
		s.close()
		return nil, err
	}
	rep, _, err := s.campaign(svcDoc{warm, gallery["cluster-sleep.json"]}, -1, nil, time.Now())
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	s.warm = rep
	if s.dropped0, s.rejected0, err = s.counters(); err != nil {
		s.close()
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return s, nil
}

func (s *service) clients() int       { return serviceClients }
func (s *service) workPerOp() float64 { return 1 }
func (s *service) heapOps() int       { return serviceHeapOps }
func (s *service) digest() string     { return s.warm }

func (s *service) op(_ int, rec *recorder) (time.Duration, error) {
	i := s.next.Add(1) - 1
	d := serviceDoc(s.env.seed, int(i), s.gallery)
	_, lat, err := s.campaign(d, i, rec, time.Now())
	return lat, err
}

// campaign runs one submission that started at t0 end to end, checks
// it, and returns the report's digest and the latency from submission
// until the report was fetched.
func (s *service) campaign(d svcDoc, op int64, rec *recorder, t0 time.Time) (string, time.Duration, error) {
	resp, err := s.client.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(d.body))
	if err != nil {
		return "", 0, err
	}
	var v server.View
	err = decodeBody(resp, http.StatusAccepted, &v)
	rec.span("server.submit", "service.op", op, t0)
	if err != nil {
		return "", 0, fmt.Errorf("submit %d: %w", op, err)
	}

	t1 := time.Now()
	final, frames, nbytes, err := s.stream(v.ID)
	rec.span("server.stream", "service.op", op, t1)
	if err != nil {
		return "", 0, fmt.Errorf("job %s stream: %w", v.ID, err)
	}
	if final.State != server.StateDone {
		return "", 0, fmt.Errorf("job %s ended %s: %s", v.ID, final.State, final.Error)
	}

	t2 := time.Now()
	rep, err := s.get(v.ID, "report")
	rec.span("server.report_get", "service.op", op, t2)
	if err != nil {
		return "", 0, err
	}
	sum, err := report.ReadCampaignSummary(bytes.NewReader(rep))
	if err != nil {
		return "", 0, fmt.Errorf("job %s report: %w", v.ID, err)
	}
	if sum.Nodes != d.nodes {
		return "", 0, fmt.Errorf("job %s report has %d nodes, submitted %d", v.ID, sum.Nodes, d.nodes)
	}
	lat := time.Since(t0)

	t3 := time.Now()
	tr, err := s.get(v.ID, "trace")
	rec.span("server.trace_get", "service.op", op, t3)
	if err != nil {
		return "", 0, err
	}
	t4 := time.Now()
	r, err := tracefile.NewBytesReader(tr)
	if err != nil {
		return "", 0, fmt.Errorf("job %s trace: %w", v.ID, err)
	}
	ts, err := report.SummarizeTrace(r, tracefile.Window{})
	rec.span("report.SummarizeTrace", "service.op", op, t4)
	if err != nil {
		return "", 0, fmt.Errorf("job %s trace: %w", v.ID, err)
	}
	if len(ts.Series) != d.nodes*seriesPerNode || ts.Samples == 0 || ts.Incomplete != "" {
		return "", 0, fmt.Errorf("job %s trace: %d series, %d samples (%s); want %d series",
			v.ID, len(ts.Series), ts.Samples, ts.Incomplete, d.nodes*seriesPerNode)
	}
	if rec != nil {
		jt := jobTimes{frames: frames, streamBytes: nbytes, traceBytes: len(tr)}
		sub, e1 := time.Parse(time.RFC3339Nano, final.SubmittedAt)
		start, e2 := time.Parse(time.RFC3339Nano, final.StartedAt)
		end, e3 := time.Parse(time.RFC3339Nano, final.FinishedAt)
		if e1 != nil || e2 != nil || e3 != nil {
			return "", 0, fmt.Errorf("job %s: unparsable timestamps in %+v", v.ID, final)
		}
		jt.queue, jt.exec = start.Sub(sub), end.Sub(start)
		s.mu.Lock()
		s.jobs = append(s.jobs, jt)
		s.mu.Unlock()
	}
	h := sha256.Sum256(rep)
	return hex.EncodeToString(h[:8]), lat, nil
}

// stream reads the job's SSE stream to its end and returns the final
// state frame, the frame count and the bytes read.
func (s *service) stream(id string) (server.View, int, int, error) {
	var final server.View
	resp, err := s.client.Get(s.ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return final, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return final, 0, 0, fmt.Errorf("status %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var event, data string
	frames, nbytes := 0, 0
	lastKind, lastData := "", ""
	for sc.Scan() {
		line := sc.Text()
		nbytes += len(line) + 1
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "":
			frames++
			lastKind, lastData = event, data
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return final, frames, nbytes, err
	}
	if lastKind != "state" {
		return final, frames, nbytes, fmt.Errorf("stream ended with a %q frame, want a final state frame", lastKind)
	}
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		return final, frames, nbytes, fmt.Errorf("final state frame: %w", err)
	}
	return final, frames, nbytes, nil
}

func (s *service) get(id, artifact string) ([]byte, error) {
	resp, err := s.client.Get(s.ts.URL + "/v1/jobs/" + id + "/" + artifact)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("job %s %s: %w", id, artifact, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("job %s %s: status %s: %s", id, artifact, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// counters reads the server's stream-drop and rejection totals from
// /metrics.
func (s *service) counters() (dropped, rejected float64, err error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, perr := strconv.ParseFloat(val, 64)
		if perr != nil {
			continue
		}
		switch {
		case name == "thermsrv_stream_dropped_total":
			dropped += v
		case strings.HasPrefix(name, "thermsrv_jobs_rejected_total"):
			rejected += v
		}
	}
	return dropped, rejected, sc.Err()
}

func (s *service) trace(bool) {}

func (s *service) layers(rec *recorder, l *metricSet) {
	s.mu.Lock()
	jobs := append([]jobTimes(nil), s.jobs...)
	s.mu.Unlock()
	var queue, exec []time.Duration
	frames, sbytes, tbytes := 0.0, 0.0, 0.0
	for _, j := range jobs {
		queue = append(queue, j.queue)
		exec = append(exec, j.exec)
		frames += float64(j.frames)
		sbytes += float64(j.streamBytes)
		tbytes += float64(j.traceBytes)
	}
	n := float64(max(len(jobs), 1))
	l.set("server.admit_p50_ms", rec.spanMS("server.submit", 0.5))
	l.set("server.queue_p50_ms", ms(quantile(queue, 0.5)))
	l.set("server.exec_p50_ms", ms(quantile(exec, 0.5)))
	l.set("server.exec_p90_ms", ms(quantile(exec, 0.9)))
	l.set("server.stream_frames_per_job", frames/n)
	l.set("server.stream_bytes_per_job", sbytes/n)
	l.set("server.report_get_p50_ms", rec.spanMS("server.report_get", 0.5))
	l.set("server.trace_get_p50_ms", rec.spanMS("server.trace_get", 0.5))
	l.set("tracefile.trace_kb_per_job", tbytes/n/1024)
	l.set("tracefile.summarize_p50_ms", rec.spanMS("report.SummarizeTrace", 0.5))
	if dropped, rejected, err := s.counters(); err == nil {
		l.set("server.stream_dropped", dropped-s.dropped0)
		l.set("server.rejected", rejected-s.rejected0)
	}
}

// finish records the submitted sequence so the run can be replayed.
func (s *service) finish() error {
	var b bytes.Buffer
	n := int(s.next.Load())
	for i := 0; i < n; i++ {
		b.Write(serviceDoc(s.env.seed, i, s.gallery).body)
		b.WriteByte('\n')
	}
	fmt.Printf("service: %d campaigns submitted; warm-up report digest %s\n", n, s.warm)
	return s.env.record(fmt.Sprintf("service-seed%d.jsonl", s.env.seed), b.Bytes())
}

func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: service: shutdown: %v\n", err)
	}
	s.ts.Close()
	if err := os.RemoveAll(s.dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: service: %v\n", err)
	}
}
