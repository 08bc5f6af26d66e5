// Benchmarks regenerating every table and figure of the paper's evaluation
// (§9), plus micro-benchmarks of the substrates. The pipeline benches run
// the complete system — blocking, active learning, estimation, iteration —
// on scaled synthetic datasets with a simulated crowd and report the
// paper's metrics (F1, cost, labeled pairs, umbrella sizes) as custom
// benchmark metrics, so `go test -bench` output IS the reproduction log.
//
// Scales here are chosen so each bench iteration completes in seconds; the
// default experiment scales (cmd/experiments) are larger. Shapes — who
// wins, by roughly what factor, where blocking triggers — match at both.
package corleone

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/corleone-em/corleone/internal/blocker"
	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/experiments"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
)

// benchSetups are the bench-scale dataset configurations.
func benchSetups() []experiments.Setup {
	return []experiments.Setup{
		experiments.NewSetup("Restaurants", 0.5, experiments.DefaultErrorRate, 31),
		experiments.NewSetup("Citations", 0.05, experiments.DefaultErrorRate, 32),
		experiments.NewSetup("Products", 0.08, experiments.DefaultErrorRate, 33),
	}
}

// BenchmarkTable1_Datasets generates the three datasets and reports their
// Table 1 statistics (sizes, match counts, positive density).
func BenchmarkTable1_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range benchSetups() {
			ds := s.Dataset()
			b.ReportMetric(float64(ds.Truth.NumMatches()), "matches_"+ds.Name)
		}
	}
}

// BenchmarkTable2 runs Corleone plus both baselines per dataset: the
// headline accuracy/cost comparison. Reported metrics per dataset:
// F1, baseline-1 F1, baseline-2 F1, dollars spent, pairs labeled.
func BenchmarkTable2(b *testing.B) {
	for _, s := range benchSetups() {
		s := s
		b.Run(s.Profile.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, res, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				b1 := experiments.RunBaseline(ds, res.Accounting.Pairs, s.Seed)
				b2 := experiments.RunBaseline(ds, 0, s.Seed)
				b.ReportMetric(res.True.F1, "F1")
				b.ReportMetric(b1.Metrics.F1, "B1_F1")
				b.ReportMetric(b2.Metrics.F1, "B2_F1")
				b.ReportMetric(res.Accounting.Cost, "cost_$")
				b.ReportMetric(float64(res.Accounting.Pairs), "pairs")
			}
		})
	}
}

// BenchmarkTable3_Blocking runs the Blocker on the two datasets where it
// triggers and reports umbrella size, recall, and blocking cost.
func BenchmarkTable3_Blocking(b *testing.B) {
	for _, name := range []string{"Citations", "Products"} {
		scale := 0.05
		if name == "Products" {
			scale = 0.08
		}
		s := experiments.NewSetup(name, scale, experiments.DefaultErrorRate, 34)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds := s.Dataset()
				cfg := s.EngineConfig()
				cfg.SkipEstimator = true // blocking + one matching pass
				res, err := Run(ds, s.Crowd(ds), cfg)
				if err != nil {
					b.Fatal(err)
				}
				blk := res.Blocking
				if !blk.Triggered {
					b.Fatal("blocking did not trigger")
				}
				kept := ds.Truth.CountMatchesIn(blk.Candidates)
				b.ReportMetric(float64(len(blk.Candidates)), "umbrella")
				b.ReportMetric(100*float64(kept)/float64(ds.Truth.NumMatches()), "recall_%")
				b.ReportMetric(res.BlockingAccounting.Cost, "cost_$")
				b.ReportMetric(float64(res.BlockingAccounting.Pairs), "pairs")
			}
		})
	}
}

// BenchmarkTable4_Iterations runs the full iterative loop and reports the
// per-phase pair counts and the estimation accuracy gap (|est F1 − true
// F1|, which the paper finds within 0.5–5.4 points).
func BenchmarkTable4_Iterations(b *testing.B) {
	s := experiments.NewSetup("Citations", 0.05, experiments.DefaultErrorRate, 35)
	for i := 0; i < b.N; i++ {
		_, res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Iterations), "iterations")
		var estGap float64
		for _, ph := range res.Phases {
			if ph.HasEst {
				estGap = abs(ph.Estimated.F1 - res.True.F1)
			}
		}
		b.ReportMetric(estGap, "estF1_gap")
		b.ReportMetric(res.True.F1, "F1")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkFigure2_RuleExtraction measures training a toy forest and
// extracting its decision rules (the paper's Figure 2 pipeline).
func BenchmarkFigure2_RuleExtraction(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []bool
	for i := 0; i < 500; i++ {
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, v)
		y = append(y, v[0] > 0.5 && v[1] > 0.3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := forest.Train(X, y, forest.Defaults())
		neg, pos := f.Rules()
		if len(neg)+len(pos) == 0 {
			b.Fatal("no rules")
		}
	}
}

// BenchmarkFigure3_Confidence runs one active-learning pass and reports the
// confidence-series length and the stop pattern (encoded: 1 converged,
// 2 near-absolute, 3 degrading, 4 other).
func BenchmarkFigure3_Confidence(b *testing.B) {
	s := experiments.NewSetup("Restaurants", 0.5, experiments.DefaultErrorRate, 36)
	for i := 0; i < b.N; i++ {
		ds := s.Dataset()
		cfg := s.EngineConfig()
		cfg.SkipEstimator = true
		res, err := Run(ds, s.Crowd(ds), cfg)
		if err != nil {
			b.Fatal(err)
		}
		tr := res.ConfidenceTraces[0]
		b.ReportMetric(float64(len(tr.Confidence)), "AL_iterations")
		code := 4.0
		switch tr.Reason {
		case "converged":
			code = 1
		case "near-absolute":
			code = 2
		case "degrading":
			code = 3
		}
		b.ReportMetric(code, "stop_pattern")
	}
}

// BenchmarkFigure4_HITRendering measures rendering crowd questions.
func BenchmarkFigure4_HITRendering(b *testing.B) {
	ds := datagen.Generate(datagen.Scaled(datagen.ProductsPaper, 0.05))
	pairs := ds.Truth.Matches()[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pairs
		if out := experiments.Figure4(); len(out) == 0 {
			b.Fatal("empty rendering")
		}
	}
}

// BenchmarkExpEstimatorEfficiency reproduces the §9.3 sample-efficiency
// comparison: labels used by the baseline estimator vs Corleone's.
func BenchmarkExpEstimatorEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.EstimatorEfficiency(
			[]experiments.Setup{experiments.NewSetup("Restaurants", 0.5, 0, 37)})
		r := rows[0]
		b.ReportMetric(float64(r.BaselineLabels), "baseline_labels")
		b.ReportMetric(float64(r.CorleoneLabels), "corleone_labels")
		b.ReportMetric(r.SavingsPct, "savings_%")
	}
}

// BenchmarkExpReduction reproduces the §9.3 reduction-effectiveness
// analysis: F1 before and after iterating on difficult pairs.
func BenchmarkExpReduction(b *testing.B) {
	setups := []experiments.Setup{experiments.NewSetup("Products", 0.08, experiments.DefaultErrorRate, 38)}
	for i := 0; i < b.N; i++ {
		runs, err := experiments.RunAll(setups, false)
		if err != nil {
			b.Fatal(err)
		}
		rows, _ := experiments.ReductionEffectiveness(runs)
		if len(rows) > 0 {
			b.ReportMetric(rows[0].F1Iter1, "F1_iter1")
			b.ReportMetric(rows[0].F1Final, "F1_final")
		}
	}
}

// BenchmarkExpRulePrecision reproduces the §9.3 rule-evaluation audit:
// the true precision of every crowd-certified rule.
func BenchmarkExpRulePrecision(b *testing.B) {
	setups := []experiments.Setup{experiments.NewSetup("Citations", 0.05, experiments.DefaultErrorRate, 39)}
	for i := 0; i < b.N; i++ {
		runs, err := experiments.RunAll(setups, false)
		if err != nil {
			b.Fatal(err)
		}
		rows, _ := experiments.RulePrecisionAudit(runs)
		for _, r := range rows {
			if r.Count > 0 {
				b.ReportMetric(r.MeanPrec, "prec_"+r.Step)
			}
		}
	}
}

// BenchmarkExpCrowdNoise reproduces the §9.3 error-rate sensitivity sweep
// on the Restaurants dataset (0%, 10%, 20%).
func BenchmarkExpCrowdNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.CrowdNoiseSensitivity([]string{"Restaurants"},
			map[string]float64{"Restaurants": 0.4}, 40)
		for _, r := range rows {
			b.ReportMetric(r.F1, fmt.Sprintf("F1_err%.0f", 100*r.ErrorRate))
			b.ReportMetric(r.Cost, fmt.Sprintf("cost_err%.0f", 100*r.ErrorRate))
		}
	}
}

// BenchmarkExpParamSensitivity reproduces the §9.4 parameter sweep
// (k, Pmin, t_B) on a small Citations instance.
func BenchmarkExpParamSensitivity(b *testing.B) {
	if testing.Short() {
		b.Skip("8 full pipeline runs")
	}
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.ParamSensitivity("Citations", 0.04, 41)
		for _, r := range rows {
			_ = r
		}
		b.ReportMetric(float64(len(rows)), "configs")
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkSimilarityEditDistance(b *testing.B) {
	x, y := "kingston hyperx 4gb kit 2 x 2gb", "kingston 4 gb hyperx ddr3 kit"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		similarity.EditSim(x, y)
	}
}

func BenchmarkSimilarityJaroWinkler(b *testing.B) {
	x, y := "kingston hyperx 4gb kit", "kingston hyperx 12gb kit"
	for i := 0; i < b.N; i++ {
		similarity.JaroWinkler(x, y)
	}
}

func BenchmarkSimilarityJaccardWords(b *testing.B) {
	x, y := "efficient scalable entity matching with crowdsourcing",
		"scalable crowdsourced entity resolution framework"
	for i := 0; i < b.N; i++ {
		similarity.JaccardWords(x, y)
	}
}

func BenchmarkSimilarityMongeElkan(b *testing.B) {
	x, y := "chaitanya gokhale, sanjib das, anhai doan", "c. gokhale, s. das, a. doan"
	for i := 0; i < b.N; i++ {
		similarity.MongeElkan(x, y)
	}
}

func BenchmarkFeatureVector(b *testing.B) {
	ds := datagen.Generate(datagen.Scaled(datagen.ProductsPaper, 0.05))
	ex := feature.NewExtractor(ds)
	p := record.P(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Vector(p)
	}
}

func BenchmarkForestTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []bool
	for i := 0; i < 500; i++ {
		v := make([]float64, 20)
		for j := range v {
			v[j] = rng.Float64()
		}
		X = append(X, v)
		y = append(y, v[0]+v[1] > 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forest.Train(X, y, forest.Defaults())
	}
}

func BenchmarkForestPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []bool
	for i := 0; i < 500; i++ {
		v := make([]float64, 20)
		for j := range v {
			v[j] = rng.Float64()
		}
		X = append(X, v)
		y = append(y, v[0]+v[1] > 1)
	}
	f := forest.Train(X, y, forest.Defaults())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(X[i%len(X)])
	}
}

// BenchmarkPipelineCitations measures a whole Citations pipeline run
// (blocking, matching and reduction; the estimator is skipped). Blocking —
// the A×B rule application the paper offloads to Hadoop — is most of its
// time; pairs_scanned contextualizes it.
func BenchmarkPipelineCitations(b *testing.B) {
	s := experiments.NewSetup("Citations", 0.05, 0, 42)
	ds := s.Dataset()
	cfg := s.EngineConfig()
	cfg.SkipEstimator = true
	// One full run to get the selected rules, outside the timer.
	res, err := Run(ds, s.Crowd(ds), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Blocking.Selected) == 0 {
		b.Skip("no rules selected at this seed")
	}
	b.ResetTimer()
	// Re-apply the pipeline end to end; pairs/op contextualizes the scan.
	for i := 0; i < b.N; i++ {
		res2, err := Run(ds, s.Crowd(ds), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res2.Blocking.CartesianSize), "pairs_scanned")
	}
}

// ---- ablation benches (design choices DESIGN.md calls out) ----

// BenchmarkAblationVoting compares the §8.2 aggregation schemes on a
// spammy simulated panel: accuracy and answers per pair.
func BenchmarkAblationVoting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.VotingAblation(400, 0.85, 3, 43)
		for _, r := range rows {
			b.ReportMetric(r.LabelAccuracy, "acc_"+r.Scheme)
			b.ReportMetric(r.AnswersPerPair, "apq_"+r.Scheme)
		}
	}
}

// BenchmarkAblationALStrategy compares entropy-driven example selection
// against uniform-random selection on the full pipeline.
func BenchmarkAblationALStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.ALStrategyAblation("Restaurants", 0.5, 44)
		for _, r := range rows {
			b.ReportMetric(r.F1, "F1_"+r.Strategy)
		}
	}
}

// BenchmarkAblationStopping compares the §5.3 stopping patterns against
// fixed-iteration and impatient variants.
func BenchmarkAblationStopping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.StoppingAblation("Restaurants", 0.5, 45)
		for j, r := range rows {
			b.ReportMetric(float64(r.ALIters), fmt.Sprintf("iters_v%d", j))
			b.ReportMetric(r.F1, fmt.Sprintf("F1_v%d", j))
		}
	}
}

// BenchmarkAblationBudgetSplit compares §10 budget allocations.
func BenchmarkAblationBudgetSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.BudgetAllocationStudy("Restaurants", 0.5, 3, 46)
		for j, r := range rows {
			b.ReportMetric(r.F1, fmt.Sprintf("F1_split%d", j))
		}
	}
}

// BenchmarkDawidSkene measures EM aggregation throughput.
func BenchmarkDawidSkene(b *testing.B) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.5))
	panel := crowd.MixedPanel(ds.Truth, 8, 0.85, 2, 47)
	votes := crowd.CollectVotes(panel, ds.Truth.Matches(), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crowd.DawidSkene(votes, panel.NumWorkers(), 100, 1e-7)
	}
}

func crowdRunnerForBench(ds *record.Dataset) *crowd.Runner {
	r := crowd.NewRunner(crowd.NewSimulated(ds.Truth, 0.05, 71), 0.01)
	r.SeedLabels(ds.Seeds)
	return r
}

func blockerDefaultsForBench(tb int) blocker.Config {
	cfg := blocker.Defaults()
	cfg.TB = tb
	cfg.Seed = 72
	return cfg
}

var blockerRun = blocker.Run

// BenchmarkExpTBScaling checks the §9.4 claim that blocking time grows
// only linearly with t_B (the sample S is proportional to t_B, and active
// learning over it dominates). Sub-benchmarks double t_B; ns/op should
// roughly double, not square.
func BenchmarkExpTBScaling(b *testing.B) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.05))
	for _, tb := range []int{10000, 20000, 40000} {
		b.Run(fmt.Sprintf("tB=%d", tb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex := feature.NewExtractor(ds)
				runner := crowdRunnerForBench(ds)
				cfg := blockerDefaultsForBench(tb)
				res, err := blockerRun(ds, ex, runner, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.SampleSize), "sample_size")
			}
		})
	}
}
