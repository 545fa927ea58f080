package experiment

import (
	"fmt"
	"strings"
	"time"

	"thermctl/internal/config"
	"thermctl/internal/trace"
	"thermctl/internal/workload"
)

// WorkloadRow is one kernel's thermal/power profile.
type WorkloadRow struct {
	Name string
	// ExecS and Exec20S are execution times at 2.4 and 2.0 GHz.
	ExecS   float64
	Exec20S float64
	// SlowdownPct is the 2.0 GHz slowdown — the in-band technique's
	// price on this kernel.
	SlowdownPct float64
	// AvgPowerW and PeakC characterize the thermal demand at nominal
	// frequency under a fixed 50% fan.
	AvgPowerW float64
	PeakC     float64
}

// WorkloadStudyResult profiles the NPB-like kernel suite: how much heat
// each kernel generates and what down-clocking costs it. The spread is
// the paper's §1 claim that "the behavior of parallel applications
// provides significant opportunities for power and thermal reductions"
// made quantitative: a memory-bound kernel offers nearly free in-band
// cooling, a compute-bound one pays full price.
type WorkloadStudyResult struct {
	Rows []WorkloadRow
}

// WorkloadStudy runs each kernel on 4 nodes with the fan pinned at 50%
// duty, at 2.4 GHz and again at 2.0 GHz.
func WorkloadStudy(seed uint64) (*WorkloadStudyResult, error) {
	progs := []workload.Program{
		workload.EPB4(), workload.BTB4(), workload.LUB4(),
		workload.MGB4(), workload.CGB4(),
	}
	res := &WorkloadStudyResult{}
	for _, prog := range progs {
		row := WorkloadRow{Name: prog.Name}
		for _, freq := range []float64{2.4, 2.0} {
			rig, tr, err := newTracedRig(4, seed, bare, time.Second)
			if err != nil {
				return nil, err
			}
			c := rig.Cluster
			for _, n := range c.Nodes {
				if err := n.FS.WriteInt(n.Hwmon.PWMEnable, 1); err != nil {
					return nil, err
				}
				if err := n.FS.WriteInt(n.Hwmon.PWM, 128); err != nil { // ≈50%
					return nil, err
				}
				if !n.CPU.SetFreqGHz(freq) {
					return nil, fmt.Errorf("no %v GHz state", freq)
				}
			}
			run := c.RunProgram(prog, 0)
			if freq == 2.4 {
				row.ExecS = run.ExecTime.Seconds()
				row.AvgPowerW = meterAvgW(c)
				row.PeakC = maxAcross(tr, len(c.Nodes))
			} else {
				row.Exec20S = run.ExecTime.Seconds()
			}
		}
		row.SlowdownPct = (row.Exec20S/row.ExecS - 1) * 100
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// maxAcross returns the hottest die-temperature sample of any node.
func maxAcross(tr trace.Set, nodes int) float64 {
	peak := -1e9
	for i := 0; i < nodes; i++ {
		if s := &tr[config.TraceIndex(i, config.TraceTemp)]; s.Max() > peak {
			peak = s.Max()
		}
	}
	return peak
}

// Row returns the named kernel's row, or nil.
func (r *WorkloadStudyResult) Row(name string) *WorkloadRow {
	for i := range r.Rows {
		if r.Rows[i].Name == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// String prints the suite profile.
func (r *WorkloadStudyResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: NPB-like kernel suite, 4 nodes, fan pinned at 50%%\n")
	fmt.Fprintf(&sb, "  %-8s %-10s %-10s %-9s %-10s\n",
		"kernel", "exec s", "avg W", "peak degC", "2.0GHz cost")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-8s %-10.1f %-10.2f %-9.2f %+.1f%%\n",
			row.Name, row.ExecS, row.AvgPowerW, row.PeakC, row.SlowdownPct)
	}
	fmt.Fprintf(&sb, "  (memory-bound kernels offer near-free in-band cooling;\n")
	fmt.Fprintf(&sb, "   compute-bound ones pay the full frequency ratio)\n")
	return sb.String()
}
