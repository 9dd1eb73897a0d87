package core

// SyntheticPowerModel fits the Eq. 9 MVLR to a fixed full-rank synthetic
// dataset generated from known coefficients. The simulator and fast test
// suites use it where power *truth* is irrelevant but determinism and
// instant startup matter; production fleets train real models per machine
// kind.
func SyntheticPowerModel() (*PowerModel, error) {
	coef := []float64{5, 2e-9, 3e-9, 4e-8, 1e-9, 2.5e-9}
	ds := &PowerDataset{}
	for i := 0; i < 16; i++ {
		v := []float64{
			float64(i%5+1) * 1e8,
			float64(i%3+1) * 5e7,
			float64(i%7+1) * 1e6,
			float64(i%4+1) * 2e8,
			float64(i%6+1) * 1e7,
		}
		w := coef[0]
		for j, c := range coef[1:] {
			w += float64(c * v[j])
		}
		ds.Features = append(ds.Features, v)
		ds.Watts = append(ds.Watts, w)
	}
	return FitPowerModel(ds)
}
