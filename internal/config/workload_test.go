package config

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"thermctl/internal/workload"
)

// groupedScenario is a heterogeneous two-group fleet under a seeded
// random workload — the full new surface in one document.
const groupedScenario = `{
	"name": "grouped",
	"seed": 11,
	"workload": {"kind": "random", "dist": "exponential", "mean": 0.4, "hold_ms": 2000},
	"groups": [
		{"name": "std", "nodes": 3},
		{"name": "hot", "nodes": 2,
		 "hardware": {"freqs_ghz": [2.0, 1.6, 1.0], "fan_max_rpm": 3200, "ambient_offset_c": 6},
		 "workload": {"kind": "flashcrowd", "base": 0.2, "peak": 0.95, "at_ms": 5000, "decay_ms": 20000}}
	],
	"control": {"fan": "dynamic", "dvfs": "tdvfs", "tuning": {"pp": 50}}
}`

// TestWorkloadByteIdenticalAcrossWorkers is the acceptance invariant
// of the workload plane: per-node seeded generators evaluated in the
// sharded phase produce bit-exact trajectories at every worker count,
// heterogeneous groups included.
func TestWorkloadByteIdenticalAcrossWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // exercise the real pool even on a 1-CPU host
	defer runtime.GOMAXPROCS(prev)
	run := func(workers int) []uint64 {
		s, err := ReadScenario(strings.NewReader(groupedScenario))
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		rig, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		defer rig.Cluster.Close()
		if len(rig.Generators) != 5 {
			t.Fatalf("generators = %d, want 5", len(rig.Generators))
		}
		res := rig.Cluster.RunGenerators(rig.Generators, 20*time.Second)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		var sig []uint64
		for _, n := range rig.Cluster.Nodes {
			sig = append(sig,
				math.Float64bits(n.TrueDieC()),
				math.Float64bits(n.Sensor.Read()),
				math.Float64bits(n.Fan.Duty()),
				math.Float64bits(n.CPU.FreqGHz()),
				math.Float64bits(n.Meter.CPUEnergyJ()))
		}
		return sig
	}
	want := run(1)
	for _, workers := range []int{2, 5} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: observable %d diverged from serial", workers, i)
			}
		}
	}
}

func TestGroupedScenarioBuildsHeterogeneousFleet(t *testing.T) {
	s, err := ReadScenario(strings.NewReader(groupedScenario))
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 5 {
		t.Fatalf("derived nodes = %d, want 5", s.Nodes)
	}
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Cluster.Close()
	if len(rig.Groups) != 2 || rig.Groups[1].Name != "hot" || rig.Groups[1].First != 3 || rig.Groups[1].Count != 2 {
		t.Fatalf("groups = %+v", rig.Groups)
	}
	// Group hardware landed: the hot group's CPUs top out at 2.0 GHz,
	// the std group at the Athlon64 default 2.4.
	if f := rig.Cluster.Nodes[0].CPU.FreqGHz(); f != 2.4 {
		t.Errorf("std node top frequency = %v, want 2.4", f)
	}
	if f := rig.Cluster.Nodes[3].CPU.FreqGHz(); f != 2.0 {
		t.Errorf("hot node top frequency = %v, want 2.0", f)
	}
	// Node naming and seeding stay global across groups.
	if rig.Cluster.Nodes[3].Name != "node3" {
		t.Errorf("node 3 named %q", rig.Cluster.Nodes[3].Name)
	}
}

func TestGroupWorkloadOverridesScenarioWorkload(t *testing.T) {
	s, err := ReadScenario(strings.NewReader(groupedScenario))
	if err != nil {
		t.Fatal(err)
	}
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Cluster.Close()
	// The hot group's flash crowd starts at base 0.2 exactly; the std
	// group's exponential draw is random-valued.
	if u := rig.Generators[3].Utilization(0); u != 0.2 {
		t.Errorf("hot group generator at t=0 = %v, want the flash-crowd base 0.2", u)
	}
	if u0, u1 := rig.Generators[0].Utilization(0), rig.Generators[1].Utilization(0); u0 == u1 {
		t.Errorf("std nodes drew identical demand %v; per-node streams look shared", u0)
	}
}

func TestScenarioWorkloadProgramExclusive(t *testing.T) {
	in := `{"program": "bt", "workload": {"kind": "constant", "util": 0.5}, "control": {}}`
	if _, err := ReadScenario(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("program+workload accepted: %v", err)
	}
}

func TestScenarioGroupValidation(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"unnamed group", `{"groups": [{"nodes": 2}], "control": {}}`, "missing name"},
		{"duplicate group", `{"groups": [{"name": "a", "nodes": 1}, {"name": "a", "nodes": 1}], "control": {}}`, "declared twice"},
		{"empty group", `{"groups": [{"name": "a", "nodes": 0}], "control": {}}`, "at least one node"},
		{"nodes conflict", `{"nodes": 9, "groups": [{"name": "a", "nodes": 2}], "control": {}}`, "conflicts"},
		{"ascending freqs", `{"groups": [{"name": "a", "nodes": 1, "hardware": {"freqs_ghz": [1.0, 2.0]}}], "control": {}}`, "descending"},
		{"negative freq", `{"groups": [{"name": "a", "nodes": 1, "hardware": {"freqs_ghz": [-1]}}], "control": {}}`, "positive"},
		{"group workload with program", `{"program": "bt", "groups": [{"name": "a", "nodes": 1, "workload": {"kind": "constant"}}], "control": {}}`, "mutually exclusive"},
		{"bad group workload", `{"groups": [{"name": "a", "nodes": 1, "workload": {"kind": "warp"}}], "control": {}}`, "unknown"},
		{"bad workload", `{"workload": {"kind": "jitter"}, "control": {}}`, "period"},
	}
	for _, c := range cases {
		_, err := ReadScenario(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestUngroupedScenarioUnchanged(t *testing.T) {
	// A grouped scenario with default hardware builds the exact same
	// fleet as the equivalent flat one: grouping is bookkeeping, not
	// reseeding.
	flat, err := ReadScenario(strings.NewReader(`{"nodes": 4, "seed": 3, "control": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := ReadScenario(strings.NewReader(
		`{"seed": 3, "groups": [{"name": "a", "nodes": 1}, {"name": "b", "nodes": 3}], "control": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	rf, err := flat.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Cluster.Close()
	rg, err := grouped.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Cluster.Close()
	for i := 0; i < 40; i++ {
		rf.Cluster.Step()
		rg.Cluster.Step()
	}
	for i := range rf.Cluster.Nodes {
		a, b := rf.Cluster.Nodes[i].Sensor.Read(), rg.Cluster.Nodes[i].Sensor.Read()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("node %d diverged between flat and grouped default fleets: %v vs %v", i, a, b)
		}
	}
}

func TestRegroupingKeepsWorkloadStreams(t *testing.T) {
	// Node i's demand derives from the global node index, not its
	// group, so re-partitioning a fleet never reseeds its workload.
	one, err := ReadScenario(strings.NewReader(
		`{"seed": 5, "workload": {"kind": "random", "hold_ms": 1000}, "groups": [{"name": "a", "nodes": 4}], "control": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	two, err := ReadScenario(strings.NewReader(
		`{"seed": 5, "workload": {"kind": "random", "hold_ms": 1000}, "groups": [{"name": "a", "nodes": 2}, {"name": "b", "nodes": 2}], "control": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := one.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Cluster.Close()
	r2, err := two.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Cluster.Close()
	for i := 0; i < 4; i++ {
		for k := 0; k < 20; k++ {
			at := time.Duration(k) * time.Second
			if r1.Generators[i].Utilization(at) != r2.Generators[i].Utilization(at) {
				t.Fatalf("node %d demand changed under regrouping at %v", i, at)
			}
		}
	}
}

func TestExtendsComposition(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("base.json", `{
		"name": "base",
		"seed": 21,
		"workload": {"kind": "diurnal", "base": 0.5, "amplitude": 0.3, "period_ms": 240000},
		"groups": [{"name": "std", "nodes": 3}],
		"control": {"fan": "dynamic", "tuning": {"pp": 50, "max_fan_duty": 80}},
		"chaos": {"seed": 4, "horizon_ms": 30000}
	}`)
	write("derived.json", `{
		"extends": "base.json",
		"name": "derived",
		"workload": {"kind": "diurnal", "base": 0.6, "amplitude": 0.3, "period_ms": 240000},
		"control": {"tuning": {"pp": 25}},
		"chaos": null
	}`)
	s, err := LoadScenario(filepath.Join(dir, "derived.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "derived" || s.Seed != 21 {
		t.Errorf("name/seed = %s/%d, want derived/21 (seed inherited)", s.Name, s.Seed)
	}
	// Nested merge: pp overridden, sibling max_fan_duty inherited.
	if s.Control.Tuning.Pp != 25 {
		t.Errorf("pp = %v, want the override 25", s.Control.Tuning.Pp)
	}
	if s.Control.Tuning.MaxFanDuty != 80 {
		t.Errorf("max_fan_duty = %v, want the inherited 80", s.Control.Tuning.MaxFanDuty)
	}
	if s.Control.Fan != "dynamic" {
		t.Errorf("fan = %q, want inherited dynamic", s.Control.Fan)
	}
	// Scalar-within-object override replaces; null deletes.
	if s.Workload == nil || s.Workload.Base != 0.6 {
		t.Errorf("workload = %+v, want the override (base 0.6)", s.Workload)
	}
	if s.Chaos.Seed != 0 || s.Chaos.HorizonMS != 0 {
		t.Errorf("chaos = %+v, want deleted by null", s.Chaos)
	}
	if s.Nodes != 3 {
		t.Errorf("nodes = %d, want 3 from the inherited groups", s.Nodes)
	}
}

// TestReadScenarioDirRejectsTrailingData: a scenario document is one
// JSON value; a second value or garbage after it is refused.
func TestReadScenarioDirRejectsTrailingData(t *testing.T) {
	for _, body := range []string{
		`{"nodes": 2} {"nodes": 9} garbage`,
		`{"nodes": 2, "control": {}} x`,
	} {
		if _, err := ReadScenarioDir(strings.NewReader(body), t.TempDir()); !errors.Is(err, ErrTrailingData) {
			t.Errorf("%s: err = %v, want ErrTrailingData", body, err)
		}
	}
}

// TestExtendsBaseRejectsTrailingData: every base an extends chain
// resolves is held to the same one-value rule as the top document.
func TestExtendsBaseRejectsTrailingData(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "base.json"),
		[]byte(`{"nodes": 2, "control": {}} {"nodes": 9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadScenarioDir(strings.NewReader(`{"extends": "base.json", "seed": 3}`), dir)
	if !errors.Is(err, ErrTrailingData) {
		t.Fatalf("err = %v, want ErrTrailingData from the base", err)
	}
}

func TestExtendsChainAndErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.json", `{"nodes": 2, "seed": 1, "control": {}}`)
	write("b.json", `{"extends": "a.json", "seed": 2}`)
	write("c.json", `{"extends": "b.json", "name": "c"}`)
	s, err := LoadScenario(filepath.Join(dir, "c.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 2 || s.Seed != 2 || s.Name != "c" {
		t.Errorf("chain merged to %d/%d/%s, want 2/2/c", s.Nodes, s.Seed, s.Name)
	}

	write("loop1.json", `{"extends": "loop2.json"}`)
	write("loop2.json", `{"extends": "loop1.json"}`)
	if _, err := LoadScenario(filepath.Join(dir, "loop1.json")); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("extends cycle: %v", err)
	}

	write("escape.json", `{"extends": "../outside.json"}`)
	if _, err := LoadScenario(filepath.Join(dir, "escape.json")); err == nil || !strings.Contains(err.Error(), "relative path inside") {
		t.Errorf("path escape: %v", err)
	}

	write("missing.json", `{"extends": "nope.json"}`)
	if _, err := LoadScenario(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing base accepted")
	}

	// ReadScenario has no directory: extends is refused, flat documents
	// still parse.
	if _, err := ReadScenario(strings.NewReader(`{"extends": "a.json"}`)); err == nil || !strings.Contains(err.Error(), "directory") {
		t.Errorf("directoryless extends: %v", err)
	}
	if _, err := ReadScenario(strings.NewReader(`{"nodes": 2, "control": {}}`)); err != nil {
		t.Errorf("flat document through ReadScenario: %v", err)
	}

	// Unknown fields are still rejected after composition, and large
	// seeds survive the merge bit-exact.
	write("typo.json", `{"extends": "a.json", "nodez": 3}`)
	if _, err := LoadScenario(filepath.Join(dir, "typo.json")); err == nil {
		t.Error("unknown field survived composition")
	}
	write("bigseed.json", `{"nodes": 1, "seed": 18446744073709551615, "control": {}}`)
	write("bigseed_child.json", `{"extends": "bigseed.json"}`)
	s, err = LoadScenario(filepath.Join(dir, "bigseed_child.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 18446744073709551615 {
		t.Errorf("64-bit seed mangled by composition: %d", s.Seed)
	}
}

func TestWorkloadSeedFamilyDistinctFromNodeNoise(t *testing.T) {
	// The workload plane salts its seed family: a node's demand stream
	// must not be derived from the same value as its sensor noise.
	s, err := ReadScenario(strings.NewReader(
		`{"nodes": 2, "seed": 77, "workload": {"kind": "cpuburn"}, "control": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Cluster.Close()
	// Rebuild what an unsalted family would have produced for node 0
	// and check the actual generator differs.
	unsalted := workload.Spec{Kind: "cpuburn"}
	g, err := unsalted.Build(77, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * time.Second
		if g.Utilization(at) == rig.Generators[0].Utilization(at) {
			same++
		}
	}
	if same > 2 {
		t.Error("workload family seed equals the node noise family (missing salt)")
	}
}
