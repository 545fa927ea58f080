package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchFile is the benchmark's definition, BENCHMARK.json at the
// repository root. Its end_to_end and per_layer lists are the one table
// of metric names and units: an untraced run prints exactly the
// end_to_end metrics, a traced run exactly the per_layer ones, and a
// run that produces a metric the table does not declare fails.
const benchFile = "BENCHMARK.json"

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type decls struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDecls(path string) (*decls, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d decls
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	return &d, nil
}

// profBuckets returns the buckets of the declared prof.<bucket>_pct
// metrics.
func (d *decls) profBuckets() []string {
	var bs []string
	for _, m := range d.PerLayer {
		if b, ok := strings.CutPrefix(m.Name, "prof."); ok {
			bs = append(bs, strings.TrimSuffix(b, "_pct"))
		}
	}
	return bs
}

// metricSet collects one run's metrics against a declared list.
type metricSet struct {
	units      map[string]string
	m          map[string]metric
	undeclared []string
}

func newMetricSet(list []metricDecl) *metricSet {
	s := &metricSet{units: map[string]string{}, m: map[string]metric{}}
	for _, d := range list {
		s.units[d.Name] = d.Unit
	}
	return s
}

// set records a declared metric with its declared unit; complete
// reports an undeclared one.
func (s *metricSet) set(name string, v float64) {
	u, ok := s.units[name]
	if !ok {
		s.undeclared = append(s.undeclared, name)
		return
	}
	s.m[name] = metric{v, u}
}

// zeroUnset sets every declared metric not yet recorded to 0: the
// layers a workload's operations never reach.
func (s *metricSet) zeroUnset() {
	for name := range s.units {
		if _, ok := s.m[name]; !ok {
			s.set(name, 0)
		}
	}
}

// complete returns the metrics, or an error naming the measured ones
// the table does not declare or, failing that, the declared ones the
// run did not measure.
func (s *metricSet) complete() (map[string]metric, error) {
	if len(s.undeclared) > 0 {
		sort.Strings(s.undeclared)
		return nil, fmt.Errorf("metrics not declared in %s: %s", benchFile, strings.Join(s.undeclared, ", "))
	}
	var missing []string
	for name := range s.units {
		if _, ok := s.m[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("declared metrics not measured: %s", strings.Join(missing, ", "))
	}
	return s.m, nil
}
