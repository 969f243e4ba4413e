package stats

import (
	"math"
	"math/rand"
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

func TestMeanStdDev(t *testing.T) {
	m, err := Mean([]float64{2, 4, 6})
	if err != nil || m != 4 {
		t.Errorf("Mean = %f, %v", m, err)
	}
	sd, err := StdDev([]float64{2, 4, 6})
	if err != nil || !almost(sd, 2, 1e-12) {
		t.Errorf("StdDev = %f, %v", sd, err)
	}
	if _, err := StdDev([]float64{1}); err == nil {
		t.Error("StdDev of singleton accepted")
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

func TestMinMaxScale(t *testing.T) {
	out := MinMaxScale([]float64{10, 20, 30})
	if out[0] != 0 || out[1] != 0.5 || out[2] != 1 {
		t.Errorf("MinMaxScale = %v", out)
	}
	if got := MinMaxScale([]float64{5, 5}); got[0] != 0 || got[1] != 0 {
		t.Errorf("constant scale = %v", got)
	}
	if MinMaxScale(nil) != nil {
		t.Error("nil scale != nil")
	}
}

func TestNormalCDF(t *testing.T) {
	if !almost(NormalCDF(0), 0.5, 1e-12) {
		t.Errorf("Phi(0) = %f", NormalCDF(0))
	}
	if !almost(NormalCDF(1.96), 0.975, 1e-3) {
		t.Errorf("Phi(1.96) = %f", NormalCDF(1.96))
	}
	if !almost(TwoSidedP(1.96), 0.05, 1e-3) {
		t.Errorf("p(1.96) = %f", TwoSidedP(1.96))
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
	if m.Iterations <= 1 || m.Iterations > 50 {
		t.Errorf("iterations = %d", m.Iterations)
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
