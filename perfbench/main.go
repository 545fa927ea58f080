// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator's layers only through their public functions, on one
// of three workloads:
//
//   - fleet: a 4096-node heterogeneous generator-driven fleet stepped
//     one simulated second per operation (cluster, node physics,
//     workload generators, .tct probe writing to a scratch file);
//   - service: the campaign server on an httptest listener, driven by
//     two closed-loop clients submitting a seeded scenario mix
//     (admission, scenario build, artifact store, SSE, reports);
//   - paper: one full regeneration of the reproduction report
//     (report.Collect plus Markdown), run serially.
//
// Usage (from the repository root):
//
//	perfbench -workload fleet -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with -trace 1 the run alternates untraced and
// traced blocks under a CPU profile, records spans in the traced ones,
// and reports the per-layer metrics. Every generated input is written
// under .bench_build/inputs so a run can be replayed. The command exits
// non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outDir, under the repository root the benchmark runs from, receives
// the generated inputs, the spans and every scratch file.
const outDir = ".bench_build"

// traceBlock is the length of each untraced and each traced block of a
// traced run.
const traceBlock = time.Second

// A run sets its workload up at least setupRounds times, and until the
// set-ups have taken setupTime in all. setup_s is their median, so one
// slow round (page faults, a stray GC) does not set the figure, and a
// set-up of a few milliseconds is sampled often enough for its median
// to repeat from run to run.
const (
	setupRounds = 5
	setupTime   = 2 * time.Second
)

// instance is one set-up workload, ready to run operations.
type instance interface {
	// clients is the number of closed-loop callers driving op at once.
	clients() int
	// op runs one operation for caller c and returns its latency
	// sample. rec is nil on untraced runs.
	op(c int, rec *recorder) (time.Duration, error)
	// workPerOp is how many throughput units one operation completes.
	workPerOp() float64
	// heapOps is how many of the timed run's first operations
	// peak_heap_mb, the largest live heap, covers. A fixed count,
	// rather than the whole run, keeps memory that grows with completed
	// work (the server's job table) from reading as a regression when
	// a change only makes the workload faster.
	heapOps() int
	// digest identifies the simulated outcome of the set-up's warm-up
	// operation; every set-up round of a run must agree ("" to skip).
	digest() string
	// trace switches the instance into or out of traced operation.
	trace(on bool)
	// layers records the workload's per-layer metrics from the traced
	// blocks' spans into l.
	layers(rec *recorder, l *metricSet)
	// finish runs the end-of-run correctness checks.
	finish() error
	// close releases everything the instance holds.
	close()
}

// workloads maps a workload name to its set-up function. A set-up
// builds everything the timed run needs and runs one warm-up operation.
var workloads = map[string]func(env *env, rec *recorder) (instance, error){
	"fleet":   setupFleet,
	"service": setupService,
	"paper":   setupPaper,
}

// env carries the run's arguments to the workloads.
type env struct {
	seed  uint64
	decls *decls
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "fleet, service or paper")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured wall time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload fleet|service|paper, -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	d, err := loadDecls(benchFile)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, decls: d}
	res, err := run(e, *name, setup, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fatal(jerr)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fatal(err)
	}
}

// record writes a workload's generated inputs under outDir/inputs, so the
// run can be replayed.
func (e *env) record(file string, data []byte) error {
	dir := filepath.Join(outDir, "inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// run sets the workload up repeatedly, then measures it for d.
// A returned error with a non-nil result is a failed correctness check:
// the result is printed with correct=false and the command exits 1.
func run(e *env, name string, setup func(*env, *recorder) (instance, error), d time.Duration, traced bool) (*result, error) {
	rec := newRecorder()
	var inst instance
	var setups []float64
	var digest string
	var spent time.Duration
	for i := 0; i < setupRounds || spent < setupTime; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		in, err := setup(e, rec)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
		inst = in
		if i == 0 {
			digest = in.digest()
		} else if got := in.digest(); got != digest {
			inst.close()
			return nil, fmt.Errorf("%s set-up round %d: warm-up digest %s differs from round 0's %s", name, i, got, digest)
		}
	}
	defer inst.close()
	if digest != "" {
		fmt.Printf("%s: warm-up digest %s (identical over %d set-ups)\n", name, digest, len(setups))
	}

	res := &result{}
	var out *metricSet
	var checks []error
	if !traced {
		out = newMetricSet(e.decls.EndToEnd)
		runtime.GC()
		st := loop(inst, d, nil)
		res.Attempted, res.Failed = st.ops, st.failed
		out.set("setup_s", median(setups))
		out.set("throughput_per_s", st.work/st.elapsed.Seconds())
		out.set("latency_p50_ms", ms(quantile(st.lat, 0.5)))
		out.set("peak_heap_mb", float64(st.peakHeap)/(1<<20))
		out.set("success_pct", 100*float64(st.ops-st.failed)/float64(st.ops))
		fmt.Printf("%s: %d ops (%d failed) in %.2fs; %d set-ups, median %.4g s\n", name, st.ops, st.failed, st.elapsed.Seconds(), len(setups), median(setups))
		if st.ops < inst.heapOps() {
			fmt.Printf("%s: peak heap covers all %d ops, fewer than the %d it is defined over\n", name, st.ops, inst.heapOps())
		}
		// The tail is printed, not gated: its run-to-run spread on a
		// shared 2-vCPU host exceeds any bound the gate allows (see
		// README.md), and paper never has 10 samples beyond it.
		if beyond := len(st.lat) / 10; beyond >= 10 {
			fmt.Printf("%s: latency p90 %.4g ms (%d samples beyond it)\n", name, ms(quantile(st.lat, 0.9)), beyond)
		} else {
			fmt.Printf("%s: latency p90 not reported: %d samples beyond it, fewer than 10\n", name, beyond)
		}
		checks = append(checks, st.errs...)
	} else {
		// Untraced and traced blocks alternate, so host drift, which on
		// a shared host moves throughput by tens of percent within
		// minutes, hits both alike and their ratio measures tracing.
		// The CPU profile covers both; the GC counts cover the untraced
		// blocks, so the spans the traced ones record stay out of them.
		out = newMetricSet(e.decls.PerLayer)
		runtime.GC()
		prof, err := startProfile()
		if err != nil {
			return nil, err
		}
		var ref, st loopStats
		var gc gcCounts
		for end := time.Now().Add(d); time.Now().Before(end); {
			gc0 := readGC()
			ref.merge(loop(inst, traceBlock, nil))
			gc.add(gc0, readGC())
			inst.trace(true)
			st.merge(loop(inst, traceBlock, rec))
			inst.trace(false)
		}
		shares, err := prof.stop(e.decls.profBuckets())
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = ref.ops+st.ops, ref.failed+st.failed
		inst.layers(rec, out)
		out.set("gc.alloc_mb_per_op", float64(gc.allocBytes)/(1<<20)/float64(ref.ops))
		out.set("gc.cycles", float64(gc.cycles))
		for k, v := range shares {
			out.set("prof."+k+"_pct", v)
		}
		refT, trT := ref.work/ref.elapsed.Seconds(), st.work/st.elapsed.Seconds()
		out.set("tracing.throughput_ratio", trT/refT)
		out.zeroUnset()
		fmt.Printf("%s: untraced %.4g/s over %d ops, traced %.4g/s over %d ops (ratio %.3f)\n",
			name, refT, ref.ops, trT, st.ops, trT/refT)
		fmt.Printf("%s: profile shares sum to %.2f%%\n", name, sum(shares))
		if err := rec.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, e.seed))); err != nil {
			return nil, err
		}
		checks = append(checks, ref.errs...)
		checks = append(checks, st.errs...)
	}
	if err := inst.finish(); err != nil {
		checks = append(checks, err)
	}
	m, err := out.complete()
	if err != nil {
		return nil, err
	}
	res.Metrics = m
	res.Correct = len(checks) == 0 && res.Failed == 0
	if !res.Correct {
		return res, fmt.Errorf("%s: %d failed operations: %w", name, res.Failed, errors.Join(checks...))
	}
	return res, nil
}

// loopStats is what one measured loop observed.
type loopStats struct {
	ops, failed int
	work        float64
	// lat holds one latency sample per operation; a failed operation
	// counts as +Inf, missing any latency limit.
	lat      []time.Duration
	elapsed  time.Duration
	peakHeap uint64
	// errs keeps the first few operation errors for the report.
	errs []error
}

// loop runs inst's closed-loop callers until d has elapsed, sampling
// the live heap after each of the first inst.heapOps() operations. The
// live heap is what the last GC found reachable: unlike the heap's
// total, it does not depend on how far the collector let garbage
// build up before it ran.
func loop(inst instance, d time.Duration, rec *recorder) loopStats {
	n := inst.clients()
	per := make([]loopStats, n)
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			for time.Now().Before(deadline) {
				lat, err := inst.op(c, rec)
				st.ops++
				if err != nil {
					st.failed++
					lat = time.Duration(math.MaxInt64)
					if len(st.errs) < 3 {
						st.errs = append(st.errs, err)
					}
				}
				st.lat = append(st.lat, lat)
				if done.Add(1) > int64(inst.heapOps()) {
					continue
				}
				metrics.Read(heap)
				if h := heap[0].Value.Uint64(); h > st.peakHeap {
					st.peakHeap = h
				}
			}
		}(c)
	}
	wg.Wait()
	all := loopStats{elapsed: time.Since(start)}
	for _, st := range per {
		st.work = float64(st.ops-st.failed) * inst.workPerOp()
		all.merge(st)
	}
	return all
}

// merge adds o's operations and time to st.
func (st *loopStats) merge(o loopStats) {
	st.ops += o.ops
	st.failed += o.failed
	st.work += o.work
	st.lat = append(st.lat, o.lat...)
	st.elapsed += o.elapsed
	st.peakHeap = max(st.peakHeap, o.peakHeap)
	st.errs = append(st.errs, o.errs...)
}

type gcCounts struct{ allocBytes, cycles uint64 }

// add adds the counts between readings a and b.
func (g *gcCounts) add(a, b gcCounts) {
	g.allocBytes += b.allocBytes - a.allocBytes
	g.cycles += b.cycles - a.cycles
}

func readGC() gcCounts {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return gcCounts{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// quantile returns the q-quantile of ds by linear interpolation between
// the closest ranks.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}
