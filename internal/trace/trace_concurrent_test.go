package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRecord hammers Record from many goroutines — the shape
// of an out-of-band BMC poller sampling while the in-band loop records.
// Under -race this fails loudly if Recorder loses its lock discipline.
func TestConcurrentRecord(t *testing.T) {
	const (
		goroutines = 8
		perG       = 500
	)
	rec := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("series%d", g%4) // contend: two goroutines per series
			for i := 0; i < perG; i++ {
				rec.Record(name, time.Duration(i)*time.Second, float64(g*perG+i))
			}
		}(g)
	}
	wg.Wait()

	names := rec.Names()
	if len(names) != 4 {
		t.Fatalf("got %d series, want 4: %v", len(names), names)
	}
	total := 0
	for _, n := range names {
		s := rec.Series(n)
		if s == nil {
			t.Fatalf("series %q missing", n)
		}
		total += s.Len()
	}
	if want := goroutines * perG; total != want {
		t.Fatalf("recorded %d samples total, want %d", total, want)
	}
}

// TestConcurrentRecordAndSnapshot checks that WriteCSV and Names taken
// mid-flight are internally consistent snapshots: every emitted row
// parses and matches the header width, even while writers keep going.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	// Each writer stops after a fixed budget. Unbounded writers outrun
	// a descheduled snapshot loop, and since every snapshot is linear in
	// the recorder's size, the test could grow until the process was
	// killed for memory.
	const perWriter = 1 << 15
	rec := NewRecorder()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", g)
			for i := 0; i < perWriter; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec.Record(name, time.Duration(i)*time.Millisecond, float64(i))
			}
		}(g)
	}
	for snap := 0; snap < 20; snap++ {
		var buf bytes.Buffer
		if err := rec.WriteCSV(&buf); err != nil {
			t.Fatalf("snapshot %d: WriteCSV: %v", snap, err)
		}
		if buf.Len() == 0 {
			continue // nothing recorded yet
		}
		if _, err := ReadCSV(&buf); err != nil {
			t.Fatalf("snapshot %d not parseable: %v", snap, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCSVRoundTripSparse round-trips a recorder whose series share no
// timestamps, so every row has empty cells; ReadCSV must skip them
// without inventing samples, and order/values must survive exactly.
func TestCSVRoundTripSparse(t *testing.T) {
	rec := NewRecorder()
	// Deliberately record "zeta" first: column order is first-recorded,
	// not alphabetical, and must survive the round trip.
	rec.Record("zeta", 1*time.Second, -3.25)
	rec.Record("alpha", 2*time.Second, 0)
	rec.Record("zeta", 3*time.Second, 101.5)
	rec.Record("alpha", 4*time.Second, 42.0625)

	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Every data row must contain exactly one empty cell (the series
	// that has no sample at that timestamp).
	for i, row := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
		empties := 0
		for _, cell := range strings.Split(row, ",") {
			if cell == "" {
				empties++
			}
		}
		if empties != 1 {
			t.Errorf("row %d %q has %d empty cells, want 1", i, row, empties)
		}
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Names(), []string{"zeta", "alpha"}; !equalStrings(got, want) {
		t.Fatalf("names after round trip = %v, want %v", got, want)
	}
	checks := []struct {
		name string
		want []Point
	}{
		{"zeta", []Point{{1 * time.Second, -3.25}, {3 * time.Second, 101.5}}},
		{"alpha", []Point{{2 * time.Second, 0}, {4 * time.Second, 42.0625}}},
	}
	for _, c := range checks {
		s := back.Series(c.name)
		if s == nil {
			t.Fatalf("series %q lost in round trip", c.name)
		}
		if s.Len() != len(c.want) {
			t.Fatalf("%s: %d points after round trip, want %d", c.name, s.Len(), len(c.want))
		}
		for i, p := range s.Points {
			if p.T != c.want[i].T || math.Abs(p.V-c.want[i].V) > 1e-9 {
				t.Errorf("%s[%d] = {%v %v}, want {%v %v}", c.name, i, p.T, p.V, c.want[i].T, c.want[i].V)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
