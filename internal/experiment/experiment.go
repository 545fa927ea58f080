// Package experiment regenerates every table and figure of the paper's
// evaluation (§4) on the simulated cluster. Each experiment has a Run
// function returning a typed result whose String method prints the rows
// or series the paper reports, plus Check* accessors the benchmark
// harness asserts the paper's qualitative claims against.
//
// Experiment index (see DESIGN.md §4 for the full mapping):
//
//	Fig2   — thermal behaviour types (sudden / gradual / jitter)
//	Fig5   — dynamic fan control vs. policy Pp ∈ {75, 50, 25}
//	Fig6   — dynamic vs. traditional static vs. constant fan on BT.B.4
//	Fig7   — maximum-PWM sweep {25, 50, 75, 100}%
//	Fig8   — tDVFS coupled with static fan control on LU
//	Fig9   — tDVFS vs. CPUSPEED under a weak fan on BT.B.4
//	Table1 — performance/power of BT under CPUSPEED vs. tDVFS
//	Fig10  — hybrid dynamic fan + tDVFS, one Pp for both knobs
package experiment

import (
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/trace"
)

// Seed is the default seed used by all experiments; fixed so every run
// of the harness reproduces identical numbers.
const Seed = 20100131 // ICPP 2010 submission era

// Workers is the worker-goroutine count applied to every cluster the
// experiments build (see cluster.SetWorkers). It is configuration, set
// once before any experiment runs (cmd/experiments wires its -workers
// flag here); parallel stepping is byte-identical to serial, so the
// value changes wall-clock time only, never a result.
var Workers = 1

// nodeSeries returns a copy of node's q series header (config.TraceTemp,
// ...), so a result holding it keeps only that series' samples alive.
func nodeSeries(tr trace.Set, node, q int) *trace.Series {
	s := tr[config.TraceIndex(node, q)]
	return &s
}

// newRig builds the standard experiment cluster through the scenario
// layer: nodes paper-platform nodes seeded from seed, settled at idle,
// with ctl's stack on every node in the sharded node-local phase.
func newRig(nodes int, seed uint64, ctl config.ControlSpec) (*config.Rig, error) {
	return config.Scenario{Nodes: nodes, Seed: seed, Workers: Workers, Control: ctl}.Build()
}

// newTracedRig is newRig plus a probe sampling every node into memory.
func newTracedRig(nodes int, seed uint64, ctl config.ControlSpec, every time.Duration) (*config.Rig, trace.Set, error) {
	rig, err := newRig(nodes, seed, ctl)
	if err != nil {
		return nil, nil, err
	}
	tr := config.NewTraceSet(config.ClusterTraceSchema(nodes))
	p, err := config.NewTraceProbe(rig.Cluster.Nodes, tr, every)
	if err != nil {
		return nil, nil, err
	}
	rig.Cluster.AddController(p)
	return rig, tr, nil
}

// bare is the stack of a cluster the experiment drives by hand: the
// ADT7467 left in chip-automatic mode and no software controller.
var bare = config.ControlSpec{Fan: "auto", DVFS: "none"}

// unified is the paper's unified stack: dynamic fan control at policy
// pp with the duty capped at maxDuty percent, coordinated with tDVFS
// at the same pp.
func unified(pp int, maxDuty float64) config.ControlSpec {
	return config.ControlSpec{Fan: "dynamic", DVFS: "tdvfs",
		Tuning: config.Config{Pp: pp, MaxFanDuty: maxDuty}}
}

// meterAvgW returns the average wall power across the cluster's nodes.
func meterAvgW(c *cluster.Cluster) float64 {
	var sum float64
	for _, n := range c.Nodes {
		sum += n.Meter.AverageW()
	}
	return sum / float64(len(c.Nodes))
}

// totalTransitions sums frequency transitions across nodes.
func totalTransitions(c *cluster.Cluster) uint64 {
	var sum uint64
	for _, n := range c.Nodes {
		sum += n.CPU.Transitions()
	}
	return sum
}
