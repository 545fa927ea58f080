package config

import (
	"fmt"
	"strings"
	"testing"

	"thermctl/internal/baseline"
	"thermctl/internal/cluster"
	"thermctl/internal/core"
	"thermctl/internal/node"
)

// TestBuildNodeMatrix pins what BuildNode attaches for every technique
// combination: the controllers in attachment order, and which typed
// handles are set. A dynamic fan with tDVFS folds both into the hybrid;
// a sleep array rides on the dynamic fan controller when there is one
// and stands alone otherwise; CPUSPEED attaches before the fan.
func TestBuildNodeMatrix(t *testing.T) {
	cases := []struct {
		fan, dvfs, sleep string
		order            string // controllers, in attachment order
		handles          string // typed NodeControl fields that are set
	}{
		{"dynamic", "none", "none", "fan", "Fan"},
		{"dynamic", "none", "ctlarray", "fan", "Fan"},
		{"dynamic", "tdvfs", "none", "hybrid", "Fan TDVFS Hybrid"},
		{"dynamic", "tdvfs", "ctlarray", "hybrid", "Fan TDVFS Hybrid"},
		{"dynamic", "cpuspeed", "none", "cpuspeed fan", "Fan"},
		{"dynamic", "cpuspeed", "ctlarray", "cpuspeed fan", "Fan"},
		{"static", "none", "none", "static", ""},
		{"static", "none", "ctlarray", "static sleep", "Sleep"},
		{"static", "tdvfs", "none", "static tdvfs", "TDVFS"},
		{"static", "tdvfs", "ctlarray", "static tdvfs sleep", "TDVFS Sleep"},
		{"static", "cpuspeed", "none", "static cpuspeed", ""},
		{"static", "cpuspeed", "ctlarray", "static cpuspeed sleep", "Sleep"},
		{"constant", "none", "none", "constant", ""},
		{"constant", "none", "ctlarray", "constant sleep", "Sleep"},
		{"constant", "tdvfs", "none", "constant tdvfs", "TDVFS"},
		{"constant", "tdvfs", "ctlarray", "constant tdvfs sleep", "TDVFS Sleep"},
		{"constant", "cpuspeed", "none", "constant cpuspeed", ""},
		{"constant", "cpuspeed", "ctlarray", "constant cpuspeed sleep", "Sleep"},
		{"auto", "none", "none", "", ""},
		{"auto", "none", "ctlarray", "sleep", "Sleep"},
		{"auto", "tdvfs", "none", "tdvfs", "TDVFS"},
		{"auto", "tdvfs", "ctlarray", "tdvfs sleep", "TDVFS Sleep"},
		{"auto", "cpuspeed", "none", "cpuspeed", ""},
		{"auto", "cpuspeed", "ctlarray", "cpuspeed sleep", "Sleep"},
	}
	for _, tc := range cases {
		name := tc.fan + "/" + tc.dvfs + "/" + tc.sleep
		t.Run(name, func(t *testing.T) {
			n, err := node.New(node.DefaultConfig("n0", 1))
			if err != nil {
				t.Fatal(err)
			}
			cs := ControlSpec{Fan: tc.fan, DVFS: tc.dvfs, Sleep: tc.sleep}
			nc, err := cs.BuildNode(n, NodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var order []string
			for _, ctl := range nc.Controllers {
				order = append(order, controllerKind(nc, ctl))
			}
			if got := strings.Join(order, " "); got != tc.order {
				t.Errorf("controllers = %q, want %q", got, tc.order)
			}
			var handles []string
			for _, h := range []struct {
				name string
				set  bool
			}{
				{"Fan", nc.Fan != nil},
				{"TDVFS", nc.TDVFS != nil},
				{"Hybrid", nc.Hybrid != nil},
				{"Sleep", nc.Sleep != nil},
			} {
				if h.set {
					handles = append(handles, h.name)
				}
			}
			if got := strings.Join(handles, " "); got != tc.handles {
				t.Errorf("handles = %q, want %q", got, tc.handles)
			}
		})
	}
}

// controllerKind names an attached controller by its concrete type,
// telling the fan and sleep ctlarray controllers apart by handle.
func controllerKind(nc *NodeControl, ctl cluster.Controller) string {
	switch c := ctl.(type) {
	case *baseline.StaticFan:
		return "static"
	case *baseline.ConstantFan:
		return "constant"
	case *baseline.CPUSpeed:
		return "cpuspeed"
	case *core.Hybrid:
		return "hybrid"
	case *core.TDVFS:
		return "tdvfs"
	case *core.Controller:
		switch c {
		case nc.Fan:
			return "fan"
		case nc.Sleep:
			return "sleep"
		}
	}
	return fmt.Sprintf("%T", ctl)
}
