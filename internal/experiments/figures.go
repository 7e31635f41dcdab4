package experiments

import (
	"fmt"

	"github.com/splicer-pcn/splicer/internal/scenario"
)

// Default sweep grids (figure x-axes). These are package variables so tests
// and benchmarks can trim them; the canonical values live in the scenario
// registry.
var (
	// ChannelScaleSweep multiplies the LN channel-size distribution
	// (Fig. 7a/8a's "influence of the channel size").
	ChannelScaleSweep = scenario.ChannelScaleGrid()
	// ValueScaleSweep multiplies transaction values (Fig. 7b/8b).
	ValueScaleSweep = scenario.ValueScaleGrid()
	// TauSweepMs is the update-time sweep in milliseconds (Fig. 7c/d, 8c/d).
	TauSweepMs = scenario.TauGridMs()
	// NodeCountSweep is the |V| grid for the FigScale scaling panel
	// (Watts–Strogatz networks from 2k to 10k nodes).
	NodeCountSweep = scenario.NodeCountGrid()
	// OmegaSweep is the weight grid for the Fig. 9 placement evaluation.
	OmegaSweep = scenario.OmegaGrid()
)

// runFigure fans the scenario's scheme × x × seed grid onto the engine.
func runFigure(base Scenario, param string, xs []float64, metric scenario.Metric) ([]Series, error) {
	series, err := scenario.RunFigure(base.Spec(), scenario.Axis{Param: param, Values: xs},
		schemeNames(Schemes), metric, base.runOptions())
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return series, nil
}

// FigChannelSize is Fig. 7(a) (small) / Fig. 8(a) (large): TSR vs channel
// size scale.
func FigChannelSize(base Scenario) ([]Series, error) {
	return runFigure(base, "channel_scale", ChannelScaleSweep, scenario.MetricTSR)
}

// FigTxnSize is Fig. 7(b) / 8(b): TSR vs transaction size scale.
func FigTxnSize(base Scenario) ([]Series, error) {
	return runFigure(base, "value_scale", ValueScaleSweep, scenario.MetricTSR)
}

// FigUpdateTime is Fig. 7(c) / 8(c): TSR vs update time τ (ms).
func FigUpdateTime(base Scenario) ([]Series, error) {
	return runFigure(base, "tau_ms", TauSweepMs, scenario.MetricTSR)
}

// FigThroughput is Fig. 7(d) / 8(d): normalized throughput vs update time.
func FigThroughput(base Scenario) ([]Series, error) {
	return runFigure(base, "tau_ms", TauSweepMs, scenario.MetricThroughput)
}

// FigScale is the Fig. 9-style scaling panel: normalized throughput vs
// network size |V|, all schemes, on the Scale scenario.
func FigScale(base Scenario) ([]Series, error) {
	return runFigure(base, "nodes", NodeCountSweep, scenario.MetricThroughput)
}

// FigBalanceCost is Fig. 9(a): average balance cost vs ω, model
// (approximation) vs optimal.
func FigBalanceCost(base Scenario) ([]Series, error) {
	return scenario.BalanceCostSeries(base.Spec(), OmegaSweep, base.runOptions())
}

// TradeoffPoint is one annotated point of Fig. 9(b).
type TradeoffPoint = scenario.TradeoffPoint

// FigCostTradeoff is Fig. 9(b): the management-vs-synchronization cost
// curve, annotated with (ω, number of smooth nodes).
func FigCostTradeoff(base Scenario) ([]TradeoffPoint, error) {
	return scenario.CostTradeoff(base.Spec(), OmegaSweep, base.runOptions())
}

// FigHubCount is Fig. 9(c) (small) / 9(d) (large): the number of smooth
// nodes placed for each weight ω.
func FigHubCount(base Scenario) (Series, error) {
	return scenario.HubCount(base.Spec(), OmegaSweep, base.runOptions())
}

// DelayOverheadPoint is one point of Fig. 9(e/f): average transaction delay
// vs total traffic overhead, with or without PCHs.
type DelayOverheadPoint = scenario.DelayOverheadPoint

// FigDelayOverhead is Fig. 9(e) / 9(f): average payment delay vs total
// communication overhead under the placement plan, against the
// source-routing reference without PCHs.
func FigDelayOverhead(base Scenario) ([]DelayOverheadPoint, error) {
	return scenario.DelayOverhead(base.Spec(), OmegaSweep, base.runOptions())
}

// DelayOverheadTable renders Fig. 9(e/f) points.
func DelayOverheadTable(title string, points []DelayOverheadPoint) Table {
	return scenario.DelayOverheadTable(title, points)
}

// TradeoffTable renders Fig. 9(b) points.
func TradeoffTable(title string, points []TradeoffPoint) Table {
	return scenario.TradeoffTable(title, points)
}

// MeanGap returns the mean relative gap between two series sharing X
// values; used by tests to quantify approximation quality in Fig. 9(a).
func MeanGap(a, b Series) float64 {
	return scenario.MeanGap(a, b)
}
