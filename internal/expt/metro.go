package expt

import (
	"fmt"
	"time"

	"spider/internal/scenario"
	"spider/internal/shard"
)

func init() {
	register("metro", func(o Options) (fmt.Stringer, error) { return MetroScale(o) })
}

// MetroScale is the metro-density workload (spider-exp -id metro): the
// same open-AP fleet as the city experiment, but over an area wide
// enough that the load-aware layout derives a genuinely 2-D tile grid
// (the square-kilometer city already tiles in both axes; the metro spec
// pins a non-square grid so row- vs column-adjacency halo exchange is
// exercised too). At Scale=1 it is a 30×30 km metro; test and fixture
// scales shrink it to a few dozen tiles. Like the city experiment the
// result is byte-identical at any -shards value.
func MetroScale(o Options) (Figure, error) {
	city, dur, err := metroRun(o, false)
	if err != nil {
		return Figure{}, err
	}
	return cityFigure("metro", city, dur), nil
}

// metroRun builds and advances the metro scenario. The area floor is
// chosen so even the smallest run tiles at least 2×2: a fixture that
// collapsed to one tile (or one stripe) would silently stop guarding
// the 2-D halo and migration machinery.
func metroRun(o Options, withObs bool) (*shard.City, time.Duration, error) {
	o = o.withDefaults()
	spec := scenario.CityGrid(o.Seed, o.scaleN(50_000, 80), o.scaleN(100_000, 24))
	spec.AreaW = float64(o.scaleN(30_000, 2400))
	spec.AreaH = float64(o.scaleN(30_000, 1600))
	dur := o.scaleDur(2*time.Minute, 10*time.Second)
	city, dur, err := specRun("metro", spec, dur, o, withObs)
	if err != nil {
		return nil, 0, err
	}
	if city.Layout.Nx < 2 || city.Layout.Ny < 2 {
		return nil, 0, fmt.Errorf("metro: layout %s is not a 2-D grid", city.Layout)
	}
	return city, dur, nil
}
