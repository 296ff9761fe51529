package core

import (
	"math"
	"sync"
	"time"
)

// Learned cost model: an online per-method latency predictor fed by one
// observation per completed method run (solveSingle). The planner's
// static Cost formulas rank methods against each other well, but they
// are unitless — they cannot answer "will this route finish inside the
// 40ms this request has left?". The cost model can: every completed
// (uncached, untruncated) method run contributes one observation (probe
// features → wall time), and planSingle consults the fitted predictor to
// pick the cheapest route that meets Options.Deadline, falling back to
// the static costs until enough observations accrue (see
// costMinObservations).
//
// Model: per method, ridge regression in log space. Features are
// z = [1, ln(n+1), ln(m+1), ln(diam+1), ln(pmax+1)] and the target is
// ln(nanoseconds), so a fitted weight vector expresses latency as a
// product of power laws — n^a · m^b · … — which matches how every
// method in the registry actually scales (polynomial factors appear as
// linear terms in log space, and even the exponential engines are
// locally well-approximated over the narrow n-range a server sees).
// Observations are folded into the normal equations (a 5×5 matrix and a
// 5-vector per method) with exponential forgetting, so the model tracks
// drift — a cache warming up, a machine slowing down — without storing
// samples. Fitting solves the 5×5 system lazily, memoized until the
// next observation.
//
// A CostModel is safe for concurrent use. The zero value is not usable;
// construct with NewCostModel.

// CostServiceKey is the pseudo-method under which the serving layer
// records whole-request service times (admission-time features only:
// diameter is unknown before the probe, so it is recorded as 0). The
// admission scheduler uses predictions under this key to decide which
// queued work provably cannot meet its deadline.
const CostServiceKey MethodName = "_service"

// costMinObservations is the evidence threshold below which Predict
// refuses to extrapolate and the planner falls back to static costs.
const costMinObservations = 8

// costForget is the per-observation forgetting factor: each new sample
// decays all previous evidence by this much, giving an effective memory
// of ~1/(1-costForget) ≈ 1024 observations.
const costForget = 1.0 - 1.0/1024.0

// costRidge is the L2 regularization added to the normal equations'
// diagonal at solve time. Features are O(1–10) in log space, so λ = 1
// is a mild prior toward zero weights that keeps the 5×5 solve stable
// when features are collinear (m ≈ n on sparse inputs).
const costRidge = 1.0

const costFeatures = 5

type costReg struct {
	count int64 // raw observations (not decayed)
	n     float64
	a     [costFeatures][costFeatures]float64
	b     [costFeatures]float64

	w      [costFeatures]float64
	fitted bool
}

// CostModel predicts per-method solve latency from probe features.
type CostModel struct {
	mu  sync.Mutex
	reg map[MethodName]*costReg
}

// NewCostModel returns an empty model: every Predict misses until
// costMinObservations samples of that method have been observed.
func NewCostModel() *CostModel {
	return &CostModel{reg: make(map[MethodName]*costReg)}
}

func costFeaturize(n, m, diam, pmax int) [costFeatures]float64 {
	return [costFeatures]float64{
		1,
		math.Log1p(float64(n)),
		math.Log1p(float64(m)),
		math.Log1p(float64(diam)),
		math.Log1p(float64(pmax)),
	}
}

// Observe folds one completed method run into the model. Non-positive
// durations are clamped to 1ns (log target). Callers should not feed
// truncated runs: their wall time reflects the deadline, not the method.
func (cm *CostModel) Observe(method MethodName, n, m, diam, pmax int, d time.Duration) {
	if cm == nil {
		return
	}
	if d <= 0 {
		d = 1
	}
	z := costFeaturize(n, m, diam, pmax)
	y := math.Log(float64(d))
	cm.mu.Lock()
	defer cm.mu.Unlock()
	r := cm.reg[method]
	if r == nil {
		r = new(costReg)
		cm.reg[method] = r
	}
	r.count++
	r.n = r.n*costForget + 1
	for i := 0; i < costFeatures; i++ {
		for j := 0; j < costFeatures; j++ {
			r.a[i][j] = r.a[i][j]*costForget + z[i]*z[j]
		}
		r.b[i] = r.b[i]*costForget + z[i]*y
	}
	r.fitted = false
}

// Predict estimates how long the method will take on an instance with
// the given probe features. ok is false while the method has fewer than
// costMinObservations samples (or the fit is degenerate), in which case
// callers fall back to static costs.
func (cm *CostModel) Predict(method MethodName, n, m, diam, pmax int) (pred time.Duration, ok bool) {
	if cm == nil {
		return 0, false
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	r := cm.reg[method]
	if r == nil || r.count < costMinObservations {
		return 0, false
	}
	if !r.fitted {
		w, solved := solveNormal(r.a, r.b)
		if !solved {
			return 0, false
		}
		r.w, r.fitted = w, true
	}
	z := costFeaturize(n, m, diam, pmax)
	var y float64
	for i := 0; i < costFeatures; i++ {
		y += r.w[i] * z[i]
	}
	// ln(ns) beyond ~44 is > 1000s — clamp rather than overflow, and
	// refuse NaN fits outright.
	if math.IsNaN(y) {
		return 0, false
	}
	if y > 44 {
		y = 44
	}
	ns := math.Exp(y)
	if ns < 1 {
		ns = 1
	}
	return time.Duration(ns), true
}

// Observations reports how many samples the model holds for a method.
func (cm *CostModel) Observations(method MethodName) int64 {
	if cm == nil {
		return 0
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if r := cm.reg[method]; r != nil {
		return r.count
	}
	return 0
}

// solveNormal solves (A + λI)w = b by Gaussian elimination with partial
// pivoting. Returns ok=false when the system is singular even after
// ridging (cannot happen with λ > 0 and finite inputs, but a NaN-poisoned
// accumulator would get here).
func solveNormal(a [costFeatures][costFeatures]float64, b [costFeatures]float64) ([costFeatures]float64, bool) {
	var m [costFeatures][costFeatures + 1]float64
	for i := 0; i < costFeatures; i++ {
		for j := 0; j < costFeatures; j++ {
			m[i][j] = a[i][j]
		}
		m[i][i] += costRidge
		m[i][costFeatures] = b[i]
	}
	for col := 0; col < costFeatures; col++ {
		pivot := col
		for row := col + 1; row < costFeatures; row++ {
			if math.Abs(m[row][col]) > math.Abs(m[pivot][col]) {
				pivot = row
			}
		}
		if m[pivot][col] == 0 || math.IsNaN(m[pivot][col]) {
			return [costFeatures]float64{}, false
		}
		m[col], m[pivot] = m[pivot], m[col]
		for row := col + 1; row < costFeatures; row++ {
			f := m[row][col] / m[col][col]
			for j := col; j <= costFeatures; j++ {
				m[row][j] -= f * m[col][j]
			}
		}
	}
	var w [costFeatures]float64
	for i := costFeatures - 1; i >= 0; i-- {
		sum := m[i][costFeatures]
		for j := i + 1; j < costFeatures; j++ {
			sum -= m[i][j] * w[j]
		}
		w[i] = sum / m[i][i]
	}
	for i := range w {
		if math.IsNaN(w[i]) || math.IsInf(w[i], 0) {
			return [costFeatures]float64{}, false
		}
	}
	return w, true
}
