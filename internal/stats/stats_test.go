package stats

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMedianQuantile(t *testing.T) {
	if _, err := Median(nil); err != ErrEmpty {
		t.Errorf("Median(nil) err = %v", err)
	}
	if m := MustMedian([]float64{5}); m != 5 {
		t.Errorf("median single = %f", m)
	}
	if m := MustMedian([]float64{1, 9, 5}); m != 5 {
		t.Errorf("median odd = %f", m)
	}
	if m := MustMedian([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("median even = %f", m)
	}
	q, err := Quantile([]float64{0, 1, 2, 3, 4}, 0.25)
	if err != nil || q != 1 {
		t.Errorf("Quantile .25 = %f, %v", q, err)
	}
	lo, _ := Quantile([]float64{4, 1, 3, 2}, 0)
	hi, _ := Quantile([]float64{4, 1, 3, 2}, 1)
	if lo != 1 || hi != 4 {
		t.Errorf("Quantile extremes = %f, %f", lo, hi)
	}
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Error("out-of-range quantile accepted")
	}
	// Median must not mutate input.
	in := []float64{3, 1, 2}
	MustMedian(in)
	if in[0] != 3 {
		t.Error("Median sorted its input")
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([]float64{2, 4, 6})
	if err != nil || m != 4 {
		t.Errorf("Mean = %f, %v", m, err)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {99, 1},
	}
	for _, tc := range cases {
		if got := e.At(tc.x); !almost(got, tc.want, 1e-12) {
			t.Errorf("At(%f) = %f, want %f", tc.x, got, tc.want)
		}
	}
	pts := e.Points(3)
	if len(pts) != 3 || pts[0][0] != 1 || pts[2][0] != 4 {
		t.Errorf("Points = %v", pts)
	}
	// At distinct values a point's probability is the ECDF's there, and
	// the last point is the whole sample.
	for _, n := range []int{3, 0} {
		pts := e.Points(n)
		for _, p := range pts {
			if p[1] != e.At(p[0]) {
				t.Errorf("Points(%d) has (%v, %v), want P = At(%v) = %v", n, p[0], p[1], p[0], e.At(p[0]))
			}
		}
		if last := pts[len(pts)-1][1]; last != 1 {
			t.Errorf("Points(%d) ends at P = %v, want 1", n, last)
		}
	}
	if _, err := NewECDF(nil); err == nil {
		t.Error("empty ECDF accepted")
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		prev := -1.0
		for _, x := range xs {
			p := e.At(x)
			if p < 0 || p > 1 {
				return false
			}
			_ = prev
		}
		return e.At(math.Inf(1)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoSidedP(t *testing.T) {
	for _, row := range []struct{ z, want float64 }{
		{0, 1},
		{1.96, 0.049995790296440868},
		{-1.96, 0.049995790296440868},
		{11.5, 1.3191542892227350e-30},
		{29.6, 1.4942643846009697e-192},
	} {
		if got := TwoSidedP(row.z); math.Abs(got-row.want) > 1e-12*row.want {
			t.Errorf("TwoSidedP(%v) = %v, want %v", row.z, got, row.want)
		}
	}
}

func TestMatrixOps(t *testing.T) {
	a := NewMatrix(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, float64(i*3+j+1))
		}
	}
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 1) != 6 {
		t.Errorf("transpose wrong: %v", at)
	}
	prod, err := a.Mul(at) // 2x2
	if err != nil {
		t.Fatal(err)
	}
	if prod.At(0, 0) != 14 || prod.At(1, 1) != 77 || prod.At(0, 1) != 32 {
		t.Errorf("product = %v %v %v", prod.At(0, 0), prod.At(0, 1), prod.At(1, 1))
	}
	v, err := a.MulVec([]float64{1, 0, -1})
	if err != nil || v[0] != -2 || v[1] != -2 {
		t.Errorf("MulVec = %v, %v", v, err)
	}
	if _, err := a.Mul(a); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestSolveAndInverse(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveSPD(a, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// 4x + y = 1; x + 3y = 2 -> x = 1/11, y = 7/11
	if !almost(x[0], 1.0/11, 1e-9) || !almost(x[1], 7.0/11, 1e-9) {
		t.Errorf("solution = %v", x)
	}
	inv, err := a.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	id, _ := a.Mul(inv)
	if !almost(id.At(0, 0), 1, 1e-9) || !almost(id.At(0, 1), 0, 1e-9) {
		t.Errorf("A*Ainv = %v", id)
	}
	sing := NewMatrix(2, 2)
	sing.Set(0, 0, 1)
	sing.Set(0, 1, 2)
	sing.Set(1, 0, 2)
	sing.Set(1, 1, 4)
	if _, err := SolveSPD(sing, []float64{1, 1}); err == nil {
		t.Error("singular system solved")
	}
	if _, err := sing.Inverse(); err == nil {
		t.Error("singular matrix inverted")
	}
}

func TestFitLinearRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 500
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1 := rng.Float64() * 10
		x2 := rng.NormFloat64()
		x[i] = []float64{x1, x2}
		y[i] = 3 + 2*x1 - 1.5*x2 + rng.NormFloat64()*0.3
	}
	m, err := FitLinear(x, y, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Intercept.Value, 3, 0.15) {
		t.Errorf("intercept = %f", m.Intercept.Value)
	}
	if !almost(m.Coefficients[0].Value, 2, 0.05) {
		t.Errorf("beta_a = %f", m.Coefficients[0].Value)
	}
	if !almost(m.Coefficients[1].Value, -1.5, 0.05) {
		t.Errorf("beta_b = %f", m.Coefficients[1].Value)
	}
	if m.R2 < 0.95 {
		t.Errorf("R2 = %f", m.R2)
	}
	if m.Coefficients[0].P >= 0.001 {
		t.Error("strong effect not significant")
	}
	if m.Coefficients[0].Name != "a" {
		t.Errorf("name = %s", m.Coefficients[0].Name)
	}
}

func TestFitLinearNoiseCovariateInsignificant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 400
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		signal := rng.Float64()
		noise := rng.NormFloat64()
		x[i] = []float64{signal, noise}
		y[i] = 5*signal + rng.NormFloat64()
	}
	m, err := FitLinear(x, y, []string{"signal", "noise"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Coefficients[1].P < 0.01 {
		t.Errorf("pure-noise covariate p = %g, spuriously significant", m.Coefficients[1].P)
	}
}

func TestFitLinearValidation(t *testing.T) {
	if _, err := FitLinear(nil, nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := FitLinear([][]float64{{1}}, []float64{1}, nil); err == nil {
		t.Error("underdetermined fit accepted")
	}
	if _, err := FitLinear([][]float64{{1}, {2}, {1, 2}}, []float64{1, 2, 3}, nil); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestFitLogisticRecoversOddsRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 4000
	x := make([][]float64, n)
	y := make([]float64, n)
	trueBeta := []float64{-0.5, 1.2, -0.8}
	for i := 0; i < n; i++ {
		x1 := float64(rng.Intn(2))
		x2 := rng.NormFloat64()
		x[i] = []float64{x1, x2}
		eta := trueBeta[0] + trueBeta[1]*x1 + trueBeta[2]*x2
		p := 1 / (1 + math.Exp(-eta))
		if rng.Float64() < p {
			y[i] = 1
		}
	}
	m, err := FitLogistic(x, y, []string{"group", "cont"})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Coefficients[0].Value, 1.2, 0.2) {
		t.Errorf("beta_group = %f, want ~1.2", m.Coefficients[0].Value)
	}
	if !almost(m.Coefficients[1].Value, -0.8, 0.15) {
		t.Errorf("beta_cont = %f, want ~-0.8", m.Coefficients[1].Value)
	}
	or := m.Coefficients[0].OddsRatio()
	if !almost(or, math.Exp(1.2), 0.7) {
		t.Errorf("OR = %f", or)
	}
	if m.Coefficients[0].P >= 0.001 {
		t.Error("strong logit effect not significant")
	}
}

// A dummy that separates the outcomes perfectly has no finite
// maximum-likelihood estimate: IRLS walks its coefficient off toward
// infinity, and FitLogistic says so instead of printing where the walk
// stopped.
func TestFitLogisticRejectsSeparatedDesign(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		g := float64(i % 2)
		x = append(x, []float64{g})
		y = append(y, g)
	}
	m, err := FitLogistic(x, y, []string{"group"})
	if err == nil || !strings.Contains(err.Error(), "converge") {
		t.Fatalf("separated design: err = %v, want a convergence error (model %+v)", err, m)
	}
}

// A constant covariate is aliased with the intercept, and a duplicated
// one with its twin: neither coefficient is identified, so both fitters
// return ErrRankDeficient naming the column instead of a made-up
// coefficient.
func TestFitsRejectAliasedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 200
	constant := make([][]float64, n)
	duplicate := make([][]float64, n)
	y := make([]float64, n)
	for i := range y {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		constant[i] = []float64{a, 7, b}
		duplicate[i] = []float64{a, b, a}
		if rng.Float64() < 1/(1+math.Exp(-a)) {
			y[i] = 1
		}
	}
	fitters := map[string]func([][]float64, []float64, []string) error{
		"FitLinear": func(x [][]float64, y []float64, names []string) error {
			_, err := FitLinear(x, y, names)
			return err
		},
		"FitLogistic": func(x [][]float64, y []float64, names []string) error {
			_, err := FitLogistic(x, y, names)
			return err
		},
	}
	for fit, f := range fitters {
		for _, tc := range []struct {
			design  string
			x       [][]float64
			names   []string
			aliased string
		}{
			{"constant", constant, []string{"a", "seven", "b"}, `"seven"`},
			{"duplicate", duplicate, []string{"a", "b", "a again"}, `"a again"`},
			{"constant, unnamed", constant, nil, `"x1"`},
		} {
			err := f(tc.x, y, tc.names)
			if !errors.Is(err, ErrRankDeficient) || !strings.Contains(err.Error(), tc.aliased) {
				t.Errorf("%s, %s column: err = %v, want ErrRankDeficient naming %s", fit, tc.design, err, tc.aliased)
			}
		}
	}
}

// A 2x2 table has a closed form: the logistic slope is the log odds
// ratio log(ad/bc), with Woolf's standard error sqrt(1/a+1/b+1/c+1/d),
// and the intercept the log odds of the unexposed row.
func TestFitLogisticMatchesTwoByTwoTable(t *testing.T) {
	// exposed: a events, b non-events; unexposed: c events, d non-events.
	const a, b, c, d = 37, 13, 21, 29
	var x [][]float64
	var y []float64
	add := func(exposed, event float64, count int) {
		for i := 0; i < count; i++ {
			x = append(x, []float64{exposed})
			y = append(y, event)
		}
	}
	add(1, 1, a)
	add(1, 0, b)
	add(0, 1, c)
	add(0, 0, d)
	m, err := FitLogistic(x, y, []string{"exposed"})
	if err != nil {
		t.Fatal(err)
	}
	logOR := math.Log(float64(a*d) / float64(b*c))
	woolf := math.Sqrt(1.0/a + 1.0/b + 1.0/c + 1.0/d)
	if got := m.Coefficients[0]; !almost(got.Value, logOR, 1e-9) || !almost(got.StdErr, woolf, 1e-9) {
		t.Errorf("slope %v ± %v, want log OR %v ± %v (Woolf)", got.Value, got.StdErr, logOR, woolf)
	}
	if want := math.Log(float64(c) / d); !almost(m.Intercept.Value, want, 1e-9) {
		t.Errorf("intercept %v, want the unexposed log odds %v", m.Intercept.Value, want)
	}
}

// With one dummy per group but the first, the model is saturated: the
// intercept is the reference group's log odds (logistic) or mean (OLS),
// and intercept + coefficient is each other group's.
func TestFitsSaturatedDummiesGiveGroupValues(t *testing.T) {
	events := []int{3, 11, 20, 6}  // per group, of
	sizes := []int{20, 25, 30, 40} // observations
	var x [][]float64
	var binary, value []float64
	sums := make([]float64, len(sizes))
	for g, size := range sizes {
		for i := 0; i < size; i++ {
			row := make([]float64, len(sizes)-1)
			if g > 0 {
				row[g-1] = 1
			}
			x = append(x, row)
			event := 0.0
			if i < events[g] {
				event = 1
			}
			binary = append(binary, event)
			v := float64(g*10+i%7) + 0.25*float64(i%3)
			value = append(value, v)
			sums[g] += v
		}
	}
	logit, err := FitLogistic(x, binary, nil)
	if err != nil {
		t.Fatal(err)
	}
	ols, err := FitLinear(x, value, nil)
	if err != nil {
		t.Fatal(err)
	}
	for g, size := range sizes {
		gotLogit, gotMean := logit.Intercept.Value, ols.Intercept.Value
		if g > 0 {
			gotLogit += logit.Coefficients[g-1].Value
			gotMean += ols.Coefficients[g-1].Value
		}
		if want := math.Log(float64(events[g]) / float64(size-events[g])); !almost(gotLogit, want, 1e-9) {
			t.Errorf("group %d: log odds %v, want %v", g, gotLogit, want)
		}
		if want := sums[g] / float64(size); !almost(gotMean, want, 1e-9*want) {
			t.Errorf("group %d: mean %v, want %v", g, gotMean, want)
		}
	}
}

func TestFitLogisticRejectsNonBinary(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{0, 1, 2, 1}
	if _, err := FitLogistic(x, y, nil); err == nil {
		t.Error("non-binary outcome accepted")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	up := []float64{2, 4, 6, 8, 10}
	down := []float64{10, 8, 6, 4, 2}
	if r, err := Pearson(x, up); err != nil || !almost(r, 1, 1e-12) {
		t.Errorf("Pearson(up) = %f, %v", r, err)
	}
	if r, err := Pearson(x, down); err != nil || !almost(r, -1, 1e-12) {
		t.Errorf("Pearson(down) = %f, %v", r, err)
	}
	if _, err := Pearson(x, []float64{1}); err == nil {
		t.Error("unpaired samples accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("constant sample accepted")
	}
	// Independent noise correlates weakly.
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	if r, _ := Pearson(a, b); math.Abs(r) > 0.1 {
		t.Errorf("independent Pearson = %f", r)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 50
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0001; q += 0.05 {
		qq := math.Min(q, 1)
		v, err := Quantile(xs, qq)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("Quantile not monotone at %f: %f < %f", qq, v, prev)
		}
		prev = v
	}
}

func TestOLSScaleInvariance(t *testing.T) {
	// Rescaling a covariate by k divides its coefficient by k and
	// leaves the fit (R2, significance) unchanged.
	rng := rand.New(rand.NewSource(7))
	n := 300
	x1 := make([][]float64, n)
	x2 := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64() * 10
		x1[i] = []float64{v}
		x2[i] = []float64{v * 1000}
		y[i] = 2*v + rng.NormFloat64()
	}
	m1, err := FitLinear(x1, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := FitLinear(x2, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m1.Coefficients[0].Value, m2.Coefficients[0].Value*1000, 1e-4) {
		t.Errorf("coef scaling broken: %f vs %f*1000", m1.Coefficients[0].Value, m2.Coefficients[0].Value)
	}
	if !almost(m1.R2, m2.R2, 1e-6) {
		t.Errorf("R2 changed under rescale: %f vs %f", m1.R2, m2.R2)
	}
}

// TestOLSRescaledLargeCovariate is the metamorphic relation Table 5
// relies on: multiplying a 1e5-magnitude covariate (GDP per capita) by
// c divides its coefficient by c and leaves every other coefficient,
// the intercept, every z and p and R² as they were, to 1e-9 relative.
// A diagonal loading of XᵀX proportional to its mean diagonal breaks
// it, because the large column sets that mean.
func TestOLSRescaledLargeCovariate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 400
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		gdp := 1000 + rng.Float64()*174000
		bw := 1 + rng.Float64()*200
		dist := rng.Float64() * 3000
		x[i] = []float64{gdp, bw, dist}
		y[i] = 300 - 2e-4*gdp - 0.4*bw + 0.01*dist + rng.NormFloat64()*60
	}
	base, err := FitLinear(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	for _, c := range []float64{1e-5, 7.3, 1e3} {
		scaled := make([][]float64, n)
		for i, row := range x {
			scaled[i] = []float64{row[0] * c, row[1], row[2]}
		}
		m, err := FitLinear(scaled, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]Coefficient{base.Intercept}, base.Coefficients...)
		for j, got := range append([]Coefficient{m.Intercept}, m.Coefficients...) {
			w := want[j]
			if j == 1 {
				w.Value, w.StdErr = w.Value/c, w.StdErr/c
			}
			if !rel(got.Value, w.Value) || !rel(got.StdErr, w.StdErr) || !rel(got.Z, w.Z) || !rel(got.P, w.P) {
				t.Errorf("c=%g, term %d: got %+v, want %+v", c, j, got, w)
			}
		}
		if !rel(m.R2, base.R2) {
			t.Errorf("c=%g: R2 %v, want %v", c, m.R2, base.R2)
		}
	}
}
