package stats

import (
	"errors"
	"fmt"
	"math"
)

// Coefficient is one fitted model term with its Wald test.
type Coefficient struct {
	// Name labels the covariate.
	Name string
	// Value is the fitted coefficient (log-odds for logistic models).
	Value float64
	// StdErr is the Wald standard error.
	StdErr float64
	// Z is Value / StdErr.
	Z float64
	// P is the two-sided p-value of the Wald test.
	P float64
}

// OddsRatio is exp(Value); meaningful for logistic coefficients.
func (c Coefficient) OddsRatio() float64 { return math.Exp(c.Value) }

// LinearModel is a fitted OLS regression.
type LinearModel struct {
	// Intercept is the constant term.
	Intercept Coefficient
	// Coefficients are the covariate terms, in design order.
	Coefficients []Coefficient
	// R2 is the coefficient of determination.
	R2 float64
	// N is the number of observations.
	N int
}

// buildDesign assembles [1 | X] and checks shapes.
func buildDesign(x [][]float64, y []float64, names []string) (*Matrix, int, error) {
	n := len(y)
	if n == 0 {
		return nil, 0, ErrEmpty
	}
	if len(x) != n {
		return nil, 0, fmt.Errorf("stats: %d rows of covariates for %d outcomes", len(x), n)
	}
	k := len(x[0])
	if k == 0 {
		return nil, 0, errors.New("stats: no covariates")
	}
	if names != nil && len(names) != k {
		return nil, 0, fmt.Errorf("stats: %d names for %d covariates", len(names), k)
	}
	if n <= k+1 {
		return nil, 0, fmt.Errorf("stats: %d observations cannot fit %d terms", n, k+1)
	}
	design := NewMatrix(n, k+1)
	for i, row := range x {
		if len(row) != k {
			return nil, 0, fmt.Errorf("stats: ragged covariate row %d", i)
		}
		design.Set(i, 0, 1)
		for j, v := range row {
			design.Set(i, j+1, v)
		}
	}
	return design, k, nil
}

// FitLinear fits y = b0 + b·x by ordinary least squares and reports
// Wald statistics per coefficient.
func FitLinear(x [][]float64, y []float64, names []string) (*LinearModel, error) {
	design, k, err := buildDesign(x, y, names)
	if err != nil {
		return nil, err
	}
	n := len(y)
	xt := design.Transpose()
	xtx, err := xt.Mul(design)
	if err != nil {
		return nil, err
	}
	ridge(xtx)
	xty, err := xt.MulVec(y)
	if err != nil {
		return nil, err
	}
	beta, err := SolveSPD(xtx, xty)
	if err != nil {
		return nil, err
	}

	// Residual variance and R^2.
	fitted, err := design.MulVec(beta)
	if err != nil {
		return nil, err
	}
	meanY, _ := Mean(y)
	var ssRes, ssTot float64
	for i := range y {
		r := y[i] - fitted[i]
		ssRes += r * r
		d := y[i] - meanY
		ssTot += d * d
	}
	dof := float64(n - k - 1)
	sigma2 := ssRes / dof

	inv, err := xtx.Inverse()
	if err != nil {
		return nil, err
	}
	coef := func(j int, name string) Coefficient {
		se := math.Sqrt(sigma2 * inv.At(j, j))
		z := 0.0
		if se > 0 {
			z = beta[j] / se
		}
		return Coefficient{Name: name, Value: beta[j], StdErr: se, Z: z, P: TwoSidedP(z)}
	}
	model := &LinearModel{Intercept: coef(0, "(intercept)"), N: n}
	for j := 0; j < k; j++ {
		name := fmt.Sprintf("x%d", j)
		if names != nil {
			name = names[j]
		}
		model.Coefficients = append(model.Coefficients, coef(j+1, name))
	}
	if ssTot > 0 {
		model.R2 = 1 - ssRes/ssTot
	}
	return model, nil
}

// LogisticModel is a fitted logistic regression.
type LogisticModel struct {
	// Intercept is the constant term.
	Intercept Coefficient
	// Coefficients are the covariate terms (log-odds scale).
	Coefficients []Coefficient
	// Iterations is how many IRLS steps convergence took.
	Iterations int
	// N is the number of observations.
	N int
}

// FitLogistic fits P(y=1) = sigmoid(b0 + b·x) by iteratively
// reweighted least squares (Newton-Raphson), with Wald statistics
// from the final information matrix. y entries must be 0 or 1.
func FitLogistic(x [][]float64, y []float64, names []string) (*LogisticModel, error) {
	design, k, err := buildDesign(x, y, names)
	if err != nil {
		return nil, err
	}
	for _, v := range y {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("stats: logistic outcome %v not in {0,1}", v)
		}
	}
	n := len(y)
	beta := make([]float64, k+1)
	var iters int
	var info *Matrix
	for iters = 1; iters <= 100; iters++ {
		eta, err := design.MulVec(beta)
		if err != nil {
			return nil, err
		}
		// Weighted system: (X^T W X) delta = X^T (y - p)
		xtwx := NewMatrix(k+1, k+1)
		grad := make([]float64, k+1)
		for i := 0; i < n; i++ {
			p := 1 / (1 + math.Exp(-eta[i]))
			w := p * (1 - p)
			if w < 1e-10 {
				w = 1e-10
			}
			for a := 0; a <= k; a++ {
				xa := design.At(i, a)
				grad[a] += xa * (y[i] - p)
				for b := a; b <= k; b++ {
					xtwx.Set(a, b, xtwx.At(a, b)+w*xa*design.At(i, b))
				}
			}
		}
		for a := 0; a <= k; a++ {
			for b := 0; b < a; b++ {
				xtwx.Set(a, b, xtwx.At(b, a))
			}
		}
		ridge(xtwx)
		delta, err := SolveSPD(xtwx, grad)
		if err != nil {
			return nil, fmt.Errorf("stats: IRLS step %d: %w", iters, err)
		}
		maxStep := 0.0
		for j := range beta {
			beta[j] += delta[j]
			if s := math.Abs(delta[j]); s > maxStep {
				maxStep = s
			}
		}
		info = xtwx
		if maxStep < 1e-8 {
			break
		}
	}
	inv, err := info.Inverse()
	if err != nil {
		return nil, err
	}
	coef := func(j int, name string) Coefficient {
		se := math.Sqrt(inv.At(j, j))
		z := 0.0
		if se > 0 {
			z = beta[j] / se
		}
		return Coefficient{Name: name, Value: beta[j], StdErr: se, Z: z, P: TwoSidedP(z)}
	}
	model := &LogisticModel{Intercept: coef(0, "(intercept)"), Iterations: iters, N: n}
	for j := 0; j < k; j++ {
		name := fmt.Sprintf("x%d", j)
		if names != nil {
			name = names[j]
		}
		model.Coefficients = append(model.Coefficients, coef(j+1, name))
	}
	return model, nil
}

// ridge adds a tiny diagonal loading so rank-deficient designs — a
// dummy column that is constant in a small sample — solve stably
// instead of failing. Each diagonal entry is inflated relatively
// (keeping coefficient estimates invariant under covariate rescaling)
// with a small absolute floor for exactly-zero entries.
func ridge(m *Matrix) {
	n := m.Rows()
	tr := 0.0
	for i := 0; i < n; i++ {
		tr += m.At(i, i)
	}
	floor := (tr/float64(n))*1e-10 + 1e-12
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)*(1+1e-10)+floor)
	}
}
