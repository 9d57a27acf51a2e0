// Package spider is the public API of the Spider reproduction: a
// discrete-event study of concurrent Wi-Fi for mobile users after
// Soroush et al., "Concurrent Wi-Fi for Mobile Users: Analysis and
// Measurements" (ACM CoNEXT 2011).
//
// The package re-exports three layers:
//
//   - The analytical model of §2.1 (join probability, Eqs. 5–7; the
//     throughput-maximization of Eqs. 8–10; the dividing speed).
//   - The Spider driver and the simulation substrates it runs on
//     (radio medium, 802.11 MAC, DHCP, TCP, vehicular mobility),
//     composable into custom scenarios.
//   - The experiment harness that regenerates every table and figure of
//     the paper's evaluation.
//
// Quick start:
//
//	world, mob := spider.AmherstDrive(1).Build()
//	client := world.AddClient(
//	    spider.Defaults(spider.SingleChannelMultiAP, []spider.ChannelSlice{{Channel: 1}}),
//	    mob)
//	world.Run(10 * time.Minute)
//	fmt.Println(client.Rec.ThroughputKBps(10 * time.Minute))
//
// A city runs on the sharded engine:
//
//	city := spider.NewCity(spider.CityGrid(1, 500, 200),
//	    spider.Defaults(spider.MultiChannelMultiAP, spider.EqualSchedule(200*time.Millisecond, 1, 6, 11)), 0)
//	if err := city.Run(time.Minute); err != nil { … }
//	for _, c := range city.Clients() { … }
package spider

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"spider/internal/core"
	"spider/internal/energy"
	"spider/internal/expt"
	"spider/internal/geo"
	"spider/internal/model"
	"spider/internal/pcap"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/selection"
	"spider/internal/shard"
	"spider/internal/sweep"
	"spider/internal/usertrace"
)

// ---- Driver (the paper's contribution) ----

// Driver modes and configuration (see internal/core for full docs).
type (
	// Mode selects the driver's scheduling/association policy.
	Mode = core.Mode
	// Config parameterizes the driver.
	Config = core.Config
	// ChannelSlice is one entry of a static channel schedule.
	ChannelSlice = core.ChannelSlice
	// Driver is the Spider driver instance.
	Driver = core.Driver
	// Iface is one virtual interface (one AP association).
	Iface = core.Iface
	// APRecord is the driver's knowledge about one discovered AP.
	APRecord = core.APRecord
)

// The four Spider configurations of the evaluation plus the stock
// baseline.
const (
	SingleChannelSingleAP = core.SingleChannelSingleAP
	SingleChannelMultiAP  = core.SingleChannelMultiAP
	MultiChannelMultiAP   = core.MultiChannelMultiAP
	MultiChannelSingleAP  = core.MultiChannelSingleAP
	StockWiFi             = core.StockWiFi
)

// Defaults returns Spider's tuned policy (reduced link and DHCP
// timeouts, lease cache, join-history selection) for a mode and
// schedule. The driver's own timers (scan, inactivity, hold-down,
// quarantine) follow from the mode: Spider's for the four Spider modes,
// the stock driver's for StockWiFi.
func Defaults(mode Mode, schedule []ChannelSlice) Config {
	return core.SpiderDefaults(mode, schedule)
}

// Stock returns the unmodified-driver baseline policy.
func Stock(schedule []ChannelSlice) Config { return core.StockDefaults(schedule) }

// EqualSchedule builds an equal static schedule over channels.
func EqualSchedule(dwell time.Duration, channels ...int) []ChannelSlice {
	return core.EqualSchedule(dwell, channels...)
}

// ---- Scenarios ----

// Scenario building blocks (see internal/scenario).
type (
	// World is one composed simulation.
	World = scenario.World
	// APSpec describes an access point to place.
	APSpec = scenario.APSpec
	// Client is a mobile node with the driver, metrics, and TCP glue.
	Client = scenario.Client
	// DriveSpec parameterizes a vehicular drive.
	DriveSpec = scenario.DriveSpec
	// CityGridSpec parameterizes a dense city-scale world.
	CityGridSpec = scenario.CityGridSpec
	// City is a planned city sharded into lockstep tiles, each with its
	// own kernel and medium, exchanging halo beacons and migrating
	// clients at epoch barriers.
	City = shard.City
	// RadioConfig parameterizes the shared medium.
	RadioConfig = radio.Config
	// Point is a 2-D position in meters.
	Point = geo.Point
	// Mobility yields a position over virtual time.
	Mobility = geo.Mobility
	// Static is a non-moving Mobility.
	Static = geo.Static
	// RouteMobility follows a route at constant speed.
	RouteMobility = geo.RouteMobility
	// StopAndGo models downtown traffic: cruise, halt at lights, repeat.
	StopAndGo = geo.StopAndGo
	// Route is a polyline path in meters.
	Route = geo.Route
	// Workload selects a client's traffic pattern.
	Workload = scenario.Workload
	// BulkWorkload is the default unbounded download per association.
	BulkWorkload = scenario.BulkWorkload
	// WebWorkload is a page-fetch/think browsing loop.
	WebWorkload = scenario.WebWorkload
)

// DefaultWebWorkload browses 100 KB pages with ~2 s think times.
func DefaultWebWorkload() *WebWorkload { return scenario.DefaultWebWorkload() }

// RectLoop builds a closed rectangular loop route.
func RectLoop(w, h float64) *Route { return geo.RectLoop(w, h) }

// StraightRoad builds a straight route along the X axis.
func StraightRoad(length float64) *Route { return geo.StraightRoad(length) }

// NewWorld creates an empty world with the given seed and medium.
func NewWorld(seed int64, cfg RadioConfig) *World { return scenario.NewWorld(seed, cfg) }

// AmherstDrive returns the default vehicular scenario of the evaluation.
func AmherstDrive(seed int64) DriveSpec { return scenario.AmherstDrive(seed) }

// BostonDrive returns the external-validation drive.
func BostonDrive(seed int64) DriveSpec { return scenario.BostonDrive(seed) }

// CityGrid returns a dense 3×3 km urban world with the given AP and
// client populations — the scale the medium's spatial index is built for.
// Build it with NewCity.
func CityGrid(seed int64, numAPs, numClients int) CityGridSpec {
	return scenario.CityGrid(seed, numAPs, numClients)
}

// NewCity draws the city from spec (CityGridSpec.Plan), gives every
// client the driver config cfg, and tiles it for the sharded engine.
// workers bounds how many tiles advance concurrently (0 = all cores);
// results are byte-identical at any value. Advance it with City.Run.
func NewCity(spec CityGridSpec, cfg Config, workers int) *City {
	return shard.NewCity(spec, cfg, workers)
}

// StaticLab returns the Fig 9 micro-benchmark world.
func StaticLab(seed int64, backhaulKbps int, channels ...int) *World {
	return scenario.StaticLab(seed, backhaulKbps, channels...)
}

// Indoor returns the Figs 7/8 single-AP world.
func Indoor(seed int64, primaryChannel, backhaulKbps int) *World {
	return scenario.Indoor(seed, primaryChannel, backhaulKbps)
}

// DefaultRadio returns the paper's medium parameters (100 m range,
// h=10%, 11 Mbps).
func DefaultRadio() RadioConfig { return radio.Defaults() }

// ---- Analytical model (§2.1) ----

// Model types (see internal/model).
type (
	// JoinParams are the inputs of the join model (Eqs. 5–7).
	JoinParams = model.JoinParams
	// ChannelOffer is one channel's joined/available bandwidth.
	ChannelOffer = model.ChannelOffer
	// Schedule is the optimizer's output.
	Schedule = model.Schedule
	// OptimizeInput bundles one Eqs. 8–10 instance.
	OptimizeInput = model.OptimizeInput
)

// PaperJoinParams returns the parameter set of Figs. 2–3.
func PaperJoinParams(betaMax time.Duration) JoinParams { return model.PaperJoinParams(betaMax) }

// Optimize solves the throughput maximization of Eqs. 8–10.
func Optimize(in OptimizeInput) Schedule { return model.Optimize(in) }

// DividingSpeed finds the speed above which switching stops paying.
func DividingSpeed(join JoinParams, channels []ChannelOffer, rangeM, lo, hi, resolution float64) float64 {
	return model.DividingSpeed(join, channels, rangeM, lo, hi, resolution)
}

// BwKbps is the paper's wireless bandwidth Bw (11 Mbps).
const BwKbps = model.BwKbps

// ---- Parallel sweeps ----

// Sweep runs n independent replications concurrently on workers
// goroutines (0 = all CPUs) and returns their results indexed by
// replication, whatever order they finished in. Derive each
// replication's randomness from TaskSeed/SweepRNG — never a shared
// *rand.Rand — and the output is byte-identical at any worker count.
// See internal/sweep for the engine and docs/TUTORIAL.md §9 for usage.
func Sweep[T any](ctx context.Context, workers, n int, task func(ctx context.Context, rep int) (T, error)) ([]T, error) {
	return sweep.RunN(ctx, workers, n, task)
}

// TaskSeed derives replication rep of study id its own world seed: a
// SplitMix64-style hash of (base, id, rep), stable across runs and
// scheduling orders.
func TaskSeed(base int64, id string, rep int) int64 { return sweep.TaskSeed(base, id, rep) }

// SweepRNG returns a dedicated RNG stream seeded by TaskSeed, for
// randomness a replication needs outside a World.
func SweepRNG(base int64, id string, rep int) *rand.Rand { return sweep.RNG(base, id, rep) }

// ---- Experiments ----

// Experiment options (seed, scale, and parallelism: Workers bounds how
// many independent sub-runs execute concurrently, 0 = all CPUs; the
// value never affects results, only wall-clock time).
type ExperimentOptions = expt.Options

// Experiments lists the reproducible tables and figures.
func Experiments() []string { return expt.IDs() }

// RunExperiment regenerates one table or figure by id ("fig2" … "fig14",
// "table1" … "table4", "ablation-…").
func RunExperiment(id string, o ExperimentOptions) (fmt.Stringer, error) { return expt.Run(id, o) }

// ---- Energy accounting (§4.8 extension) ----

// Energy model types (see internal/energy).
type (
	// EnergyModel holds per-state power draws in watts.
	EnergyModel = energy.Model
	// EnergyReport is a consumed-energy breakdown in joules.
	EnergyReport = energy.Report
	// RadioAirtime is a radio's accumulated state occupancy.
	RadioAirtime = radio.Airtime
)

// DefaultEnergyModel returns Atheros-class power draws.
func DefaultEnergyModel() EnergyModel { return energy.DefaultModel() }

// ---- AP selection (the NP-hard formulation) ----

// Selection problem types (see internal/selection).
type (
	// SelectionProblem is one utility-maximizing AP-set instance.
	SelectionProblem = selection.Problem
	// SelectionCandidate is one joinable AP.
	SelectionCandidate = selection.Candidate
)

// SelectExact solves a selection instance exactly (≤ 24 candidates).
func SelectExact(p SelectionProblem) ([]int, float64) { return selection.Exact(p) }

// SelectGreedy runs the 1/2-approximate density greedy.
func SelectGreedy(p SelectionProblem) ([]int, float64) { return selection.Greedy(p) }

// ---- Trace capture ----

// PcapCapture accumulates over-the-air frames for pcap export.
type PcapCapture = pcap.Capture

// NewPcapCapture taps a world's medium (limit 0 = default bound).
func NewPcapCapture(w *World, limit int) *PcapCapture { return pcap.NewCapture(w.Medium, limit) }

// ---- User trace (§4.7 substitute) ----

// UserTraceSpec parameterizes the synthetic mesh-user demand trace.
type UserTraceSpec = usertrace.Spec

// UserTrace is a generated day of user flows.
type UserTrace = usertrace.Trace

// GenerateUserTrace builds the synthetic §4.7 dataset.
func GenerateUserTrace(spec UserTraceSpec) *UserTrace { return usertrace.Generate(spec) }
