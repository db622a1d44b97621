package exp

import (
	"strings"
	"testing"

	"repro/internal/config"
)

// TestMitigationGridLayout: the grid is baseline-first with one entry
// per mitigation, per spec, every mitigated config validates, and
// building the grid mutates neither the base config nor the specs
// (Apply purity).
func TestMitigationGridLayout(t *testing.T) {
	base := config.GTX480Baseline()
	orig := base
	specs := adviseSpecs(t, "sc", "kmeans")

	grid, err := MitigationGrid(base, specs)
	if err != nil {
		t.Fatal(err)
	}
	mits := Mitigations()
	stride := 1 + len(mits)
	if len(grid) != len(specs)*stride {
		t.Fatalf("grid has %d entries, want %d", len(grid), len(specs)*stride)
	}
	for i, sp := range specs {
		b := grid[i*stride]
		if b.Config != base || b.Spec.SpecName != sp.SpecName {
			t.Errorf("grid[%d] is not %s's baseline", i*stride, sp.SpecName)
		}
		for j, m := range mits {
			g := grid[i*stride+1+j]
			if g.Config == base {
				t.Errorf("mitigation %s left the config unchanged for %s", m.Name, sp.SpecName)
			}
			if g.Config.Policy == (config.PolicyConfig{}) {
				t.Errorf("mitigation %s set no policy field for %s", m.Name, sp.SpecName)
			}
		}
	}
	if base != orig {
		t.Error("MitigationGrid mutated the base config")
	}

	if _, err := MitigationGrid(base, nil); err == nil || !strings.Contains(err.Error(), "at least one workload") {
		t.Errorf("empty grid error = %v", err)
	}
}
