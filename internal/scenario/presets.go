package scenario

import (
	"fmt"
	"sort"
	"strings"
)

// Presets are the named scenarios behind the paper's evaluation section:
// every figure and table runs the same paper-scale community (N=500, seed
// 42), so each preset is Default(500, 42) tagged with the experiment's name.
// Which experiment consumes the scenario is the front end's choice
// (nmrepro -experiment); the preset pins the world it runs in.
//
// "scale500" is the sharded paper-scale world: the same Default(500, 42)
// community solved hierarchically with 8 community shards (game.Config.Shards)
// — the world the benchmark's batch-scale500 workload runs. Sharding selects
// a deterministically different equilibrium path, so scale500 has its own
// content ID, pinned by the golden scenario tests alongside the flat presets.
//
// "serve-smoke" is the tiny world the nmserve smoke paths run: an
// 8-customer community with a short bootstrap, the fast QMDP solver and a
// 3-day monitoring horizon, cheap enough to drive a daemon end-to-end (and
// the session shape of the benchmark's serve-stream workload).
var presetNames = []string{"fig3", "fig4", "fig5", "fig6", "scale500", "serve-smoke", "table1"}

// scale500Shards is the shard count of the scale500 preset.
const scale500Shards = 8

// Preset returns the named preset scenario, or an error listing the valid
// names. The returned spec always validates.
func Preset(name string) (Spec, error) {
	for _, p := range presetNames {
		if p == name {
			s := Default(500, 42)
			s.Name = name
			switch name {
			case "scale500":
				s.Game.Shards = scale500Shards
			case "serve-smoke":
				s = Default(8, 42)
				s.Name = name
				s.Horizon.BootstrapDays = 4
				s.Horizon.MonitorDays = 3
				s.Game.Sweeps = 2
				s.Detector.Solver = "qmdp"
			}
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown preset %q (have %s)", name, strings.Join(presetNames, ", "))
}

// PresetNames lists the available preset scenarios in stable order.
func PresetNames() []string {
	out := append([]string(nil), presetNames...)
	sort.Strings(out)
	return out
}

// Resolve turns a -scenario flag value into a Spec: a preset name if one
// matches, otherwise a path to a JSON scenario file.
func Resolve(ref string) (Spec, error) {
	for _, p := range presetNames {
		if p == ref {
			return Preset(ref)
		}
	}
	return LoadFile(ref)
}
