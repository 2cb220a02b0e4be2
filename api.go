package hide

import (
	"context"
	"io"
	"time"

	"repro/internal/bianchi"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/ess"
	"repro/internal/policy"
	"repro/internal/porttable"
	"repro/internal/procnet"
	"repro/internal/station"
	"repro/internal/trace"
)

// Re-exported core types. Aliases keep values from the public API fully
// interchangeable with the internal packages used by advanced callers.
type (
	// Profile is a device energy profile (Table I).
	Profile = energy.Profile
	// Breakdown is an evaluated energy decomposition (Eq. 2).
	Breakdown = energy.Breakdown
	// Arrival is one received frame with its wakelock, the energy
	// model's input unit.
	Arrival = energy.Arrival
	// Overhead configures the HIDE protocol overhead (Eqs. 15-19).
	Overhead = energy.Overhead

	// Trace is a broadcast traffic trace.
	Trace = trace.Trace
	// Frame is one broadcast frame in a trace.
	Frame = trace.Frame
	// Scenario names one of the paper's five capture environments.
	Scenario = trace.Scenario
	// GenConfig parameterizes the synthetic trace generator.
	GenConfig = trace.GenConfig
	// CDF is an empirical distribution over samples.
	CDF = trace.CDF

	// PolicyKind enumerates the compared solutions.
	PolicyKind = policy.Kind

	// Result is one evaluated (trace, device, policy, useful%) cell.
	Result = core.Result
	// EnergyComparison is one trace's worth of Figure 7/8 bars.
	EnergyComparison = core.EnergyComparison
	// SuspendRow is one trace's worth of Figure 9 bars.
	SuspendRow = core.SuspendRow
	// Suite is a full per-device evaluation across all scenarios.
	Suite = core.Suite
	// Options tunes an evaluation.
	Options = core.Options

	// Network is the protocol-level simulation harness.
	Network = core.Network
	// NetworkConfig configures NewNetwork.
	NetworkConfig = core.NetworkConfig
	// NetworkCapture records a run's frames for pcap export.
	NetworkCapture = core.Capture
	// StationMode selects a simulated client's broadcast handling.
	StationMode = station.Mode

	// DCFConfig is the 802.11 configuration for the capacity model
	// (Table II).
	DCFConfig = bianchi.Config
	// CapacityParams parameterizes the capacity-overhead analysis.
	CapacityParams = bianchi.OverheadParams
	// DelayParams parameterizes the delay-overhead analysis.
	DelayParams = porttable.DelayParams
	// OpTimings prices port-table operations for the delay model.
	OpTimings = porttable.OpTimings
	// PortTable is the AP-side Client UDP Port Table.
	PortTable = porttable.Table
)

// Device profiles from the paper's Table I.
var (
	// NexusOne is the measured Nexus One profile.
	NexusOne = energy.NexusOne
	// GalaxyS4 is the measured Samsung Galaxy S4 profile.
	GalaxyS4 = energy.GalaxyS4
	// Profiles lists the built-in device profiles.
	Profiles = energy.Profiles
)

// The five trace scenarios (Figure 6).
const (
	Classroom = trace.Classroom
	CSDept    = trace.CSDept
	WML       = trace.WML
	Starbucks = trace.Starbucks
	WRL       = trace.WRL
)

// Scenarios lists all five scenarios in the paper's order.
var Scenarios = trace.Scenarios

// The compared traffic-management solutions.
const (
	// ReceiveAll is the stock smartphone behaviour.
	ReceiveAll = policy.ReceiveAll
	// ClientSide is the driver-filter lower bound of [6].
	ClientSide = policy.ClientSide
	// HIDE is the paper's AP-assisted filter.
	HIDE = policy.HIDE
	// Combined is the future-work HIDE + client-side combination.
	Combined = policy.Combined
)

// Station modes for the protocol simulation.
const (
	StationLegacy     = station.Legacy
	StationClientSide = station.ClientSide
	StationHIDE       = station.HIDE
)

// UsefulFractions is the Figure 7/8 sweep: 10%, 8%, 6%, 4%, 2%.
var UsefulFractions = core.UsefulFractions

// ProfileByName returns a built-in device profile by its Table I name
// or its flag spelling ("Nexus One" or "nexusone").
func ProfileByName(name string) (Profile, error) { return energy.ProfileByName(name) }

// GenerateTrace produces the calibrated synthetic trace for a scenario.
func GenerateTrace(s Scenario) (*Trace, error) { return trace.GenerateScenario(s) }

// GenerateTraceConfig produces a trace from a custom configuration.
func GenerateTraceConfig(cfg GenConfig) (*Trace, error) { return trace.Generate(cfg) }

// ScenarioConfig returns the calibrated generator configuration for a
// scenario, for callers that want to tweak it.
func ScenarioConfig(s Scenario) GenConfig { return trace.ScenarioConfig(s) }

// ReadTraceCSV and WriteTraceCSV exchange traces with external
// captures.
func ReadTraceCSV(r io.Reader) (*Trace, error)   { return trace.ReadCSV(r) }
func WriteTraceCSV(w io.Writer, tr *Trace) error { return trace.WriteCSV(w, tr) }

// PCAPOptions tunes the pcap importer.
type PCAPOptions = trace.PCAPOptions

// ReadTracePCAP imports a classic libpcap capture (Ethernet, raw
// 802.11, or radiotap link types) as a broadcast trace.
func ReadTracePCAP(r io.Reader, opts PCAPOptions) (*Trace, error) { return trace.ReadPCAP(r, opts) }

// WriteTracePCAP exports the trace as a radiotap 802.11 pcap capture
// with nanosecond timestamps and per-frame rates.
func WriteTracePCAP(w io.Writer, tr *Trace) error { return trace.WritePCAP(w, tr) }

// Trace transforms for building sweeps from one capture.
func TruncateTrace(tr *Trace, d time.Duration) *Trace { return trace.Truncate(tr, d) }

// TimeScaleTrace stretches or compresses the trace's time axis.
func TimeScaleTrace(tr *Trace, factor float64) (*Trace, error) { return trace.TimeScale(tr, factor) }

// LocalOpenPorts returns this Linux machine's wildcard-bound UDP ports
// — what a deployed HIDE client would report in its UDP Port Message.
func LocalOpenPorts() ([]uint16, error) { return procnet.LocalOpenPorts() }

// TraceSummary characterizes a trace's volume and burstiness.
type TraceSummary = trace.Summary

// SummarizeTrace computes volume, burstiness, and inter-arrival
// statistics for a trace.
func SummarizeTrace(tr *Trace) TraceSummary { return trace.Summarize(tr) }

// SeedSweep aggregates HIDE's saving across usefulness-tagging seeds.
type SeedSweep = core.SeedSweep

// SweepSeedsContext evaluates the headline saving across tagging seeds
// on the worker pool configured by opts.Workers; each sweep point
// evaluates exactly its listed seed, 0 included. It shows the headline
// saving is not a seed artifact.
func SweepSeedsContext(ctx context.Context, tr *Trace, dev Profile, fraction float64, seeds []uint64, opts Options) (SeedSweep, error) {
	return core.SweepSeedsContext(ctx, tr, dev, fraction, seeds, opts)
}

// DefaultSweepSeeds is a small deterministic seed set for
// SweepSeedsContext.
var DefaultSweepSeeds = core.DefaultSweepSeeds

// TagUniform marks each frame useful with probability p.
func TagUniform(tr *Trace, p float64, seed uint64) []bool { return trace.TagUniform(tr, p, seed) }

// TagByOpenPorts marks frames useful when their destination port is in
// the open set.
func TagByOpenPorts(tr *Trace, open map[uint16]bool) []bool {
	return trace.TagByOpenPorts(tr, open)
}

// OpenPortsForFraction selects ports whose traffic share approximates
// the target fraction.
func OpenPortsForFraction(tr *Trace, target float64) map[uint16]bool {
	return trace.OpenPortsForFraction(tr, target)
}

// DefaultSeed is the usefulness-tagging seed an Options value selects
// when no seed is set explicitly. Use Options.WithSeed to select seed
// 0 itself.
const DefaultSeed = core.DefaultSeed

// EvaluateContext runs one policy over a tagged trace for one device,
// honouring ctx between pipeline stages. This is the canonical
// evaluation entry point: context first, options last.
func EvaluateContext(ctx context.Context, tr *Trace, useful []bool, dev Profile, kind PolicyKind, opts Options) (Result, error) {
	return core.EvaluateContext(ctx, tr, useful, dev, kind, opts)
}

// EvaluateFractionContext tags the trace uniformly and evaluates the
// policy under ctx.
func EvaluateFractionContext(ctx context.Context, tr *Trace, fraction float64, dev Profile, kind PolicyKind, opts Options) (Result, error) {
	return core.EvaluateFractionContext(ctx, tr, fraction, dev, kind, opts)
}

// CompareEnergyContext evaluates the full Figure 7/8 bar set for one
// trace in one pass: one usefulness draw per frame serves every useful
// fraction, and the receive-all bar is the client-side sweep's τ
// candidate. Each bar equals EvaluateFractionContext's for its cell.
// The pass runs on the calling goroutine; opts.Workers does not apply.
func CompareEnergyContext(ctx context.Context, tr *Trace, dev Profile, opts Options) (EnergyComparison, error) {
	return core.CompareEnergyContext(ctx, tr, dev, opts)
}

// SuspendFractionsContext evaluates the Figure 9 row for one trace
// under ctx, reading it off CompareEnergyContext's one pass.
func SuspendFractionsContext(ctx context.Context, tr *Trace, dev Profile, opts Options) (SuspendRow, error) {
	return core.SuspendFractionsContext(ctx, tr, dev, opts)
}

// RunSuiteContext evaluates Figures 7/8 and 9 across all scenarios,
// one CompareEnergyContext pass per trace on the worker pool
// configured by opts.Workers (0 = GOMAXPROCS), and reads each trace's
// Figure 9 row off its comparison. The suite is byte-identical to the
// sequential path for any worker count, and a cancelled ctx returns
// promptly with context.Canceled in the error chain.
func RunSuiteContext(ctx context.Context, dev Profile, opts Options) (*Suite, error) {
	return core.RunSuiteContext(ctx, dev, opts)
}

// NewNetwork builds the protocol-level simulation harness.
func NewNetwork(cfg NetworkConfig) (*Network, error) { return core.NewNetwork(cfg) }

// Multi-AP extended service set (ESS) types.
type (
	// ESS is a sharded multi-AP simulation joined by a distribution
	// system; clients roam between APs with disassociation and
	// reassociation frames.
	ESS = ess.ESS
	// ESSConfig configures NewESS.
	ESSConfig = ess.Config
	// ESSStats aggregates an ESS run's roaming and port-state
	// migration counters.
	ESSStats = ess.Stats
	// ESSShard is one AP with its own medium and event loop.
	ESSShard = ess.Shard
	// ChurnConfig parameterizes the cold-vs-replicated roaming
	// experiment.
	ChurnConfig = ess.ChurnConfig
	// ChurnResult is one churn experiment outcome.
	ChurnResult = ess.ChurnResult
)

// NewESS builds a sharded multi-AP extended service set.
func NewESS(cfg ESSConfig) (*ESS, error) { return ess.New(cfg) }

// RunESSContext replays the trace across every shard of the ESS under
// ctx: shards advance through beacon-interval windows on their own and
// halt together only at stops, where cross-shard effects
// (distribution-system merges, roams) apply in a fixed order, so the
// run is byte-identical for any worker count.
func RunESSContext(ctx context.Context, e *ESS, tr *Trace) error { return e.RunContext(ctx, tr) }

// RunChurnContext runs the roaming-churn experiment: an ESS under a
// scenario trace with seed-driven client mobility, reporting roams,
// wanted-frame misses, resync-window misses, and mean per-station
// energy. Toggle ChurnConfig.Replicate to compare cold port-table
// resync against proactive distribution-system replication.
func RunChurnContext(ctx context.Context, cfg ChurnConfig) (ChurnResult, error) {
	return ess.RunChurnContext(ctx, cfg)
}

// TableII returns the 802.11b configuration of the paper's Table II.
func TableII() DCFConfig { return bianchi.TableII() }

// NetworkCapacity solves Bianchi's model for n saturated stations.
func NetworkCapacity(cfg DCFConfig, n int) (bianchi.Result, error) { return bianchi.Solve(cfg, n) }

// CapacityOverhead computes the fractional capacity decrease (Eq. 24).
func CapacityOverhead(cfg DCFConfig, p CapacityParams, n int) (float64, error) {
	return bianchi.CapacityOverhead(cfg, p, n)
}

// Figure10 sweeps the paper's capacity-overhead grid.
func Figure10(cfg DCFConfig) ([]bianchi.Figure10Point, error) { return bianchi.Figure10(cfg) }

// DelayOverhead computes the bounded RTT increase (Eq. 27).
func DelayOverhead(p DelayParams) (float64, error) { return porttable.DelayOverhead(p) }

// DelayDefaults returns the paper's Section V-B settings.
func DelayDefaults() DelayParams { return porttable.SectionVDefaults() }

// CalibratedARMTimings returns port-table operation costs calibrated
// to the paper's router-class measurement device.
func CalibratedARMTimings() OpTimings { return porttable.CalibratedARM() }

// MeasureTableTimings measures this machine's port-table operation
// costs with the paper's procedure.
func MeasureTableTimings(n, portsPerClient int, seed uint64) OpTimings {
	return porttable.Measure(n, portsPerClient, seed)
}

// Figure11 sweeps delay overhead across port-message intervals.
func Figure11(t OpTimings) ([]porttable.Figure11Point, error) { return porttable.Figure11(t) }

// Figure12 sweeps delay overhead across open-port counts.
func Figure12(t OpTimings) ([]porttable.Figure12Point, error) { return porttable.Figure12(t) }

// NewPortTable returns an empty Client UDP Port Table.
func NewPortTable() *PortTable { return porttable.New() }

// NewCDFInts builds an empirical CDF from integer samples (Figure 6).
func NewCDFInts(samples []int) *CDF { return trace.NewCDFInts(samples) }

// DefaultOverhead returns the paper's evaluation overhead settings.
func DefaultOverhead() Overhead { return energy.DefaultOverhead() }

// ComputeEnergy evaluates the Section IV model directly over arrivals;
// most callers use EvaluateContext and the policy layer instead.
func ComputeEnergy(frames []Arrival, dev Profile, duration time.Duration, overhead Overhead) (Breakdown, error) {
	return energy.Compute(frames, energy.Config{Device: dev, Duration: duration, Overhead: overhead})
}

// StateInterval is one contiguous host power-state stretch.
type StateInterval = energy.Interval

// StateTimeline reconstructs the host power-state timeline (suspended,
// resuming, awake, suspending) from a received-frame sequence. The
// intervals partition [0, duration] exactly.
func StateTimeline(frames []Arrival, dev Profile, duration time.Duration) ([]StateInterval, error) {
	return energy.StateTimeline(frames, energy.Config{Device: dev, Duration: duration})
}

// Rates re-exported for trace configuration.
const (
	Rate1Mbps  = dot11.Rate1Mbps
	Rate2Mbps  = dot11.Rate2Mbps
	Rate55Mbps = dot11.Rate55Mbps
	Rate11Mbps = dot11.Rate11Mbps
)
