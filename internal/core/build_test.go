package core

import (
	"testing"

	"repro/internal/defense"
)

// TestBuildFaces pins which optional faces the estimator Build returns
// for each task implements. Callers find them by type assertion (the
// stream engine asserts Streamable, the benchmark Collector and
// Streamable, the simulations Runner / CatRunner / CatAdvRunner), so
// losing one is an API break even though Build's signature is unchanged.
func TestBuildFaces(t *testing.T) {
	type faces struct{ streamable, collector, runner, catRunner, catAdvRunner bool }
	for _, tc := range []struct {
		name string
		sp   Spec
		want faces
	}{
		{"mean", NewSpec(MeanTask()), faces{streamable: true, collector: true, runner: true}},
		{"distribution", NewSpec(DistributionTask()), faces{streamable: true, collector: true, runner: true}},
		{"frequency", NewSpec(FrequencyTask(8)), faces{streamable: true, catRunner: true, catAdvRunner: true}},
		{"variance", NewSpec(VarianceTask()), faces{collector: true, runner: true}},
		{"baseline", NewSpec(BaselineTask(0.125, 0.875)), faces{collector: true, runner: true}},
		{"defense", NewSpec(MeanTask(), WithDefense(defense.Spec{Name: "trimming"})), faces{collector: true, runner: true}},
	} {
		est, err := Build(tc.sp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got faces
		_, got.streamable = est.(Streamable)
		_, got.collector = est.(Collector)
		_, got.runner = est.(Runner)
		_, got.catRunner = est.(CatRunner)
		_, got.catAdvRunner = est.(CatAdvRunner)
		if got != tc.want {
			t.Errorf("%s: faces %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
