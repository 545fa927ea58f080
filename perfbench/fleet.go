package main

// The fleet workload: a 4096-node heterogeneous fleet under hybrid
// control (dynamic fan plus tDVFS) with a seeded fault campaign, driven
// by per-group generators and sampled at 1 s by a .tct probe writing
// to a scratch file. One operation is one simulated second (20 cluster
// steps); throughput counts node-steps.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sync/atomic"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/tracefile"
	"thermctl/internal/workload"
)

const (
	fleetWorkers = 2
	// stepsPerOp is one simulated second at cluster.DefaultDt.
	stepsPerOp = int(time.Second / cluster.DefaultDt)
	// seriesPerNode is the trace probe's temp/duty/freq/power block.
	seriesPerNode = 4
	// checkpointOps is the timed operation after which the run prints
	// the state digest that every run of one seed must reproduce.
	checkpointOps = 30
	// fleetHorizonMS bounds the fault campaign and the recurring flash
	// crowds. At tens of ms per simulated second a run covers minutes
	// of simulated time; an hour keeps faults arriving and the load
	// shapes cycling over every second a much faster simulator could
	// reach in one run. (The share of nodes under a fault still rises
	// over the first minutes: faults.Generate spreads episode starts
	// over 60% of the horizon.)
	fleetHorizonMS = 3600000
	// fleetHeapOps is the operations peak_heap_mb covers: about half a
	// 30 s run on a 2-vCPU host, several GC cycles of the steady heap.
	fleetHeapOps = 300
)

// fleetScenario generates the fleet document from the seed: the 4096
// nodes' group layout and hardware are fixed, the load shapes'
// parameters and the simulation and fault seeds are drawn. Every load
// shape repeats within seconds to two minutes: random resamples, the
// steps program and the diurnal cycle loop, and the flash crowd recurs
// as a sequence of identical segments up to the horizon.
func fleetScenario(seed uint64) config.Scenario {
	r := rand.New(rand.NewPCG(seed, 0x666c656574))
	between := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	msBetween := func(lo, hi int) int { return lo + r.IntN(hi-lo+1) }

	random := &workload.Spec{Kind: workload.KindRandom, HoldMS: msBetween(1000, 4000)}
	if r.IntN(2) == 0 {
		random.Dist, random.Min, random.Max = "uniform", between(0.05, 0.3), between(0.7, 1)
	} else {
		random.Dist, random.Mean = "exponential", between(0.3, 0.5)
	}
	levels := make([]float64, 4)
	for i := range levels {
		levels[i] = math.Round(between(0.1, 1)*100) / 100
	}
	steps := &workload.Spec{Kind: workload.KindSteps, Levels: levels, HoldMS: msBetween(5000, 15000), Loop: true}
	diurnal := &workload.Spec{Kind: workload.KindDiurnal, Base: between(0.35, 0.55), Amplitude: between(0.3, 0.45),
		PeriodMS: msBetween(40000, 120000), PhaseMS: msBetween(0, 30000)}
	crowd := workload.Spec{Kind: workload.KindFlashCrowd, Base: between(0.15, 0.3), Peak: 1,
		AtMS: msBetween(5000, 20000), RiseMS: 2000, DecayMS: msBetween(10000, 25000)}
	period := msBetween(60000, 120000)
	flash := &workload.Spec{Kind: workload.KindSequence}
	for t := 0; t < fleetHorizonMS; t += period {
		flash.Segments = append(flash.Segments, workload.SegmentSpec{Spec: crowd, ForMS: period})
	}

	return config.Scenario{
		Name:    fmt.Sprintf("perfbench-fleet-%d", seed),
		Seed:    r.Uint64()>>1 | 1,
		Workers: fleetWorkers,
		Groups: []config.GroupSpec{
			{Name: "std", Nodes: 1536, Workload: random},
			{Name: "weakfan", Nodes: 1024, Hardware: config.HardwareSpec{FanMaxRPM: 2800}, Workload: steps},
			{Name: "hotinlet", Nodes: 1024, Hardware: config.HardwareSpec{AmbientOffsetC: 6}, Workload: diurnal},
			{Name: "lowpower", Nodes: 512, Hardware: config.HardwareSpec{FreqsGHz: []float64{1.6, 1.2, 0.8},
				FanMaxRPM: 3000, FanMaxPowerW: 2.5, RjsKPerW: 0.14, BaseW: 28}, Workload: flash},
		},
		Control: config.ControlSpec{Fan: "dynamic", DVFS: "tdvfs", Tuning: config.Config{Pp: 50}},
		Chaos:   config.ChaosSpec{Seed: r.Uint64()>>1 | 1, HorizonMS: fleetHorizonMS},
	}
}

type fleet struct {
	c    *cluster.Cluster
	gens []workload.Generator
	tw   *tracefile.Writer
	sink *traceSink
	// ops counts the operations after the warm-up.
	ops        int
	warm       string
	checkpoint string
	// counted wraps gens to count each node's generator evaluations
	// in calls during traced blocks; node i is stepped by one worker at
	// a time, so its slot needs no synchronization beyond the cluster's
	// own barriers.
	counted []workload.Generator
	calls   []uint64
	// wrote and busy sum the probe's bytes and Write time over the
	// traced blocks; wrote0 and busy0 mark the current block's start.
	wrote, busy, wrote0, busy0 int64
	// read is the read-back of the closed trace (nil until read).
	read *readBack
}

// readBack is one full pass over the probe's trace.
type readBack struct {
	// total is the index's sample count; timed counts the samples the
	// pass found in the timed seconds.
	total, timed uint64
	samples      int
	secs         float64
}

func setupFleet(e *env, rec *recorder) (instance, error) {
	doc, err := json.MarshalIndent(fleetScenario(e.seed), "", "  ")
	if err != nil {
		return nil, err
	}
	if err := e.record(fmt.Sprintf("fleet-seed%d.json", e.seed), doc); err != nil {
		return nil, err
	}
	sc, err := config.ReadScenario(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rig, err := sc.Build()
	if err != nil {
		return nil, err
	}
	rec.span("config.Build", "setup", -1, t0)
	sink, err := newTraceSink()
	if err != nil {
		rig.Cluster.Close()
		return nil, err
	}
	f := &fleet{c: rig.Cluster, gens: rig.Generators, sink: sink}
	if f.tw, err = config.AttachTraceProbe(f.c, f.sink, time.Second); err != nil {
		f.c.Close()
		sink.remove()
		return nil, err
	}
	// The warm-up operation attaches the generators and runs the first
	// simulated second.
	if res := f.c.RunGenerators(f.gens, time.Second); res.Err != nil {
		f.close()
		return nil, res.Err
	}
	f.warm = f.stateDigest()
	return f, nil
}

func (f *fleet) clients() int       { return 1 }
func (f *fleet) workPerOp() float64 { return float64(len(f.c.Nodes) * stepsPerOp) }
func (f *fleet) heapOps() int       { return fleetHeapOps }
func (f *fleet) digest() string     { return f.warm }

func (f *fleet) op(_ int, rec *recorder) (time.Duration, error) {
	t0 := time.Now()
	if rec == nil {
		for i := 0; i < stepsPerOp; i++ {
			f.c.Step()
		}
	} else {
		for i := 0; i < stepsPerOp; i++ {
			s0 := time.Now()
			f.c.Step()
			rec.span("cluster.Step", "fleet.op", int64(f.ops), s0)
		}
	}
	lat := time.Since(t0)
	rec.span("fleet.op", "", int64(f.ops), t0)
	f.ops++
	if f.ops == checkpointOps {
		f.checkpoint = f.stateDigest()
	}
	return lat, nil
}

// countingGen counts a generator's evaluations.
type countingGen struct {
	g workload.Generator
	n *uint64
}

func (c countingGen) Utilization(t time.Duration) float64 {
	*c.n++
	return c.g.Utilization(t)
}

func (f *fleet) trace(on bool) {
	if !on {
		// A zero-length run only attaches generators.
		f.c.RunGenerators(f.gens, 0)
		f.wrote += f.sink.written.Load() - f.wrote0
		f.busy += f.sink.busy.Load() - f.busy0
		return
	}
	if f.counted == nil {
		f.calls = make([]uint64, len(f.gens))
		f.counted = make([]workload.Generator, len(f.gens))
		for i, g := range f.gens {
			f.counted[i] = countingGen{g, &f.calls[i]}
		}
	}
	f.c.RunGenerators(f.counted, 0)
	f.wrote0, f.busy0 = f.sink.written.Load(), f.sink.busy.Load()
}

func (f *fleet) layers(rec *recorder, l *metricSet) {
	var calls uint64
	for _, n := range f.calls {
		calls += n
	}
	steps := rec.durations("cluster.Step")
	l.set("config.build_s", median(secondsOf(rec.durations("config.Build"))))
	l.set("cluster.steps", float64(len(steps)))
	l.set("cluster.step_p50_us", float64(quantile(steps, 0.5))/float64(time.Microsecond))
	l.set("workload.util_calls", float64(calls))
	l.set("tracefile.write_bytes", float64(f.wrote))
	l.set("tracefile.write_busy_s", time.Duration(f.busy).Seconds())
	if rb, err := f.readBack(); err == nil {
		l.set("tracefile.read_samples_per_s", float64(rb.samples)/rb.secs)
	}
}

// readBack closes the probe's writer and reads the whole trace once,
// counting the samples that fall in the timed seconds: the probe
// samples at the first step and then on every whole simulated second,
// and the timed operations own the seconds after the warm-up second.
func (f *fleet) readBack() (*readBack, error) {
	if f.read != nil {
		return f.read, nil
	}
	if err := f.tw.Close(); err != nil {
		return nil, fmt.Errorf("fleet: trace close: %w", err)
	}
	r, err := tracefile.NewReader(f.sink.f, f.sink.written.Load())
	if err != nil {
		return nil, fmt.Errorf("fleet: trace open: %w", err)
	}
	rb := &readBack{}
	rb.total, _ = r.Counts()
	from, to := time.Second, time.Duration(1+f.ops)*time.Second
	t0 := time.Now()
	err = r.Samples(tracefile.Window{}, func(s tracefile.Sample) error {
		rb.samples++
		if s.T > from && s.T <= to {
			rb.timed++
		}
		return nil
	})
	rb.secs = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("fleet: trace read: %w", err)
	}
	f.read = rb
	return rb, nil
}

// finish checks the read-back trace and prints the state digests.
func (f *fleet) finish() error {
	rb, err := f.readBack()
	if err != nil {
		return err
	}
	perSecond := uint64(len(f.c.Nodes) * seriesPerNode)
	fmt.Printf("fleet: trace holds %d samples, %d in the %d timed seconds (%d bytes)\n",
		rb.total, rb.timed, f.ops, f.sink.written.Load())
	if want := perSecond * uint64(f.ops); rb.timed != want {
		return fmt.Errorf("fleet: trace holds %d samples in the timed seconds, want nodes x 4 x seconds = %d", rb.timed, want)
	}
	if want := perSecond * uint64(f.ops+2); rb.total != want || uint64(rb.samples) != want {
		return fmt.Errorf("fleet: trace indexes %d samples and yields %d, want %d", rb.total, rb.samples, want)
	}
	if f.checkpoint == "" {
		return fmt.Errorf("fleet: run ended after %d operations, before the digest checkpoint at %d", f.ops, checkpointOps)
	}
	fmt.Printf("fleet: state digest at t=%ds %s\n", 1+checkpointOps, f.checkpoint)
	fmt.Printf("fleet: state digest at t=%ds %s\n", 1+f.ops, f.stateDigest())
	return nil
}

func (f *fleet) close() {
	// Close flushes the probe's writer; its error only matters to the
	// read-back check, which closes it first.
	_ = f.tw.Close()
	f.c.Close()
	f.sink.remove()
}

// stateDigest hashes every node's die temperature, fan duty, CPU
// frequency and energy: the simulated outcome, which a change that only
// makes the simulator faster must leave bit-identical.
func (f *fleet) stateDigest() string {
	h := sha256.New()
	var b [8]byte
	for _, n := range f.c.Nodes {
		for _, v := range [...]float64{n.TrueDieC(), n.Fan.Duty(), n.CPU.FreqGHz(), n.Meter.EnergyJ()} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// traceSink is the probe's destination: a scratch file under outDir,
// written through a wrapper that counts the bytes and the time spent in
// Write. A file keeps the trace, which grows with every operation, out
// of the heap that peak_heap_mb and gc.alloc_mb_per_op measure.
type traceSink struct {
	f       *os.File
	written atomic.Int64
	busy    atomic.Int64 // ns inside Write
}

func newTraceSink() (*traceSink, error) {
	f, err := os.CreateTemp(outDir, "fleet-*.tct")
	if err != nil {
		return nil, err
	}
	return &traceSink{f: f}, nil
}

func (s *traceSink) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := s.f.Write(p)
	s.written.Add(int64(n))
	s.busy.Add(int64(time.Since(t0)))
	return n, err
}

// remove closes and deletes the file.
func (s *traceSink) remove() {
	s.f.Close()
	os.Remove(s.f.Name())
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
