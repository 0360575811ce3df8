package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestQuadraticTwoRoots(t *testing.T) {
	tests := []struct {
		name    string
		a, b, c float64
		want    []float64
	}{
		{"unit roots", 1, 0, -1, []float64{-1, 1}},
		{"shifted", 1, -3, 2, []float64{1, 2}},
		{"scaled", 2, -6, 4, []float64{1, 2}},
		{"negative leading", -1, 0, 4, []float64{-2, 2}},
		{"tiny c cancellation", 1, -1e8, 1, []float64{1e-8, 1e8}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Quadratic(tc.a, tc.b, tc.c)
			if len(got) != len(tc.want) {
				t.Fatalf("Quadratic(%g,%g,%g) = %v, want %v", tc.a, tc.b, tc.c, got, tc.want)
			}
			for i := range got {
				rel := math.Abs(got[i]-tc.want[i]) / math.Max(1, math.Abs(tc.want[i]))
				if rel > 1e-9 {
					t.Errorf("root[%d] = %g, want %g", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestQuadraticDegenerate(t *testing.T) {
	if got := Quadratic(0, 2, -4); len(got) != 1 || !almostEqual(got[0], 2, 1e-12) {
		t.Errorf("linear case: got %v, want [2]", got)
	}
	if got := Quadratic(0, 0, 1); got != nil {
		t.Errorf("constant case: got %v, want nil", got)
	}
	if got := Quadratic(1, 0, 1); got != nil {
		t.Errorf("complex roots: got %v, want nil", got)
	}
	if got := Quadratic(1, -2, 1); len(got) != 1 || !almostEqual(got[0], 1, 1e-12) {
		t.Errorf("double root: got %v, want [1]", got)
	}
}

func TestQuadraticRootsSatisfyEquation(t *testing.T) {
	f := func(a, b, c float64) bool {
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		c = math.Mod(c, 100)
		for _, r := range Quadratic(a, b, c) {
			v := a*r*r + b*r + c
			scale := math.Max(1, math.Abs(a*r*r)+math.Abs(b*r)+math.Abs(c))
			if math.Abs(v)/scale > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(root, math.Sqrt2, 1e-9) {
		t.Errorf("root = %g, want sqrt(2)", root)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x }, 0, 5, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if root != 0 {
		t.Errorf("root = %g, want 0", root)
	}
}

func TestBisectNoSignChange(t *testing.T) {
	_, err := Bisect(func(x float64) float64 { return x*x + 1 }, -5, 5, 1e-12, 100)
	if err != ErrNoRoot {
		t.Errorf("err = %v, want ErrNoRoot", err)
	}
}

func TestBisectSwappedBounds(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x - 1 }, 3, 0, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(root, 1, 1e-9) {
		t.Errorf("root = %g, want 1", root)
	}
}

func TestBisectAgreesWithQuadratic(t *testing.T) {
	// The positive root of x² + 3x − 10 = 0 is 2.
	f := func(x float64) float64 { return x*x + 3*x - 10 }
	roots := Quadratic(1, 3, -10)
	if len(roots) != 2 {
		t.Fatalf("want 2 roots, got %v", roots)
	}
	bis, err := Bisect(f, 0, 100, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(bis, roots[1], 1e-8) {
		t.Errorf("bisect %g != quadratic %g", bis, roots[1])
	}
}
