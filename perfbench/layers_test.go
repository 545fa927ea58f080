package main

import (
	"strings"
	"testing"
)

func TestMetricSet(t *testing.T) {
	decl := []metricDecl{{"a_ms", "ms"}, {"b", "count"}}

	s := newMetricSet(decl)
	s.set("a_ms", 1.5)
	if _, err := s.complete(); err == nil || !strings.Contains(err.Error(), "b") {
		t.Errorf("complete with b unmeasured: err = %v, want one naming b", err)
	}
	s.zeroUnset()
	m, err := s.complete()
	if err != nil {
		t.Fatal(err)
	}
	if m["a_ms"] != (metric{1.5, "ms"}) || m["b"] != (metric{0, "count"}) {
		t.Errorf("metrics = %v, want a_ms 1.5 ms and b 0 count", m)
	}

	s.set("c", 2)
	if _, err := s.complete(); err == nil || !strings.Contains(err.Error(), "c") {
		t.Errorf("complete after an undeclared metric: err = %v, want one naming c", err)
	}
}
