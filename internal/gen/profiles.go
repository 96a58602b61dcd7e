package gen

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ibmParams holds the published ISPD98 benchmark-suite parameters (Alpert,
// "The ISPD98 Circuit Benchmark Suite", ISPD'98): cell, net and pin counts
// per instance. The synthetic profiles below target these statistics.
type ibmParams struct {
	cells, nets, pins int
	// macroFrac is the approximate area of the largest cell as a fraction of
	// total cell area. The ISPD98 instances contain many large macrocells;
	// ibm05 is the well-known exception with no large cells, which is why
	// corking-sensitive results look different there.
	macroFrac float64
	numMacros int
}

// Published ISPD98 instance parameters, indexed by instance number (1-18).
var ibmTable = map[int]ibmParams{
	1:  {12752, 14111, 50566, 0.063, 30},
	2:  {19601, 19584, 81199, 0.117, 40},
	3:  {23136, 27401, 93573, 0.057, 50},
	4:  {27507, 31970, 105859, 0.091, 50},
	5:  {29347, 28446, 126308, 0.000, 0},
	6:  {32498, 34826, 128182, 0.061, 60},
	7:  {45926, 48117, 175639, 0.043, 70},
	8:  {51309, 50513, 204890, 0.120, 70},
	9:  {53395, 60902, 222088, 0.056, 80},
	10: {69429, 75196, 297567, 0.046, 90},
	11: {70558, 81454, 280786, 0.036, 90},
	12: {71076, 77240, 317760, 0.062, 90},
	13: {84199, 99666, 357075, 0.035, 100},
	14: {147605, 152772, 546816, 0.021, 120},
	15: {161570, 186608, 715823, 0.015, 120},
	16: {183484, 190048, 778823, 0.024, 130},
	17: {185495, 189581, 860036, 0.009, 130},
	18: {210613, 201920, 819697, 0.011, 130},
}

// IBMProfile returns a Spec reproducing the published structural statistics
// of ISPD98 instance i (1-18). The returned instance name is "ibmNN" with a
// "-like" suffix to make the synthetic provenance explicit in reports.
func IBMProfile(i int) (Spec, error) {
	p, ok := ibmTable[i]
	if !ok {
		return Spec{}, fmt.Errorf("gen: no IBM profile %d (valid: 1-18)", i)
	}
	// Global nets absorb some pins; subtract their share before computing
	// the ordinary-net average size.
	numGlobal := 2 + p.cells/50000
	globalFrac := 0.01
	globalPins := float64(numGlobal) * globalFrac * float64(p.cells)
	avg := (float64(p.pins) - globalPins) / float64(p.nets)
	if avg < 2.4 {
		avg = 2.4
	}
	return Spec{
		Name:          fmt.Sprintf("ibm%02d-like", i),
		Cells:         p.cells,
		Nets:          p.nets,
		AvgNetSize:    avg,
		NumMacros:     p.numMacros,
		MaxMacroFrac:  p.macroFrac,
		NumGlobalNets: numGlobal,
		GlobalNetFrac: globalFrac,
		Locality:      2,
		Seed:          uint64(1000 + i),
	}, nil
}

// MustIBMProfile is IBMProfile that panics on an invalid index.
func MustIBMProfile(i int) Spec {
	s, err := IBMProfile(i)
	if err != nil {
		panic(err)
	}
	return s
}

// Scaled returns a copy of spec downscaled by factor f in (0, 1]: cell and
// net counts shrink by f while the distributional parameters (net sizes,
// macro fractions, locality) are preserved, so scaled instances exhibit the
// same qualitative phenomena at a fraction of the runtime. The paper's full
// experiments consumed weeks of CPU; test and bench defaults use f around
// 0.1-0.25.
func Scaled(spec Spec, f float64) Spec {
	if f <= 0 || f > 1 {
		panic("gen: scale factor must be in (0,1]")
	}
	s := spec
	s.Cells = maxInt(8, int(math.Round(float64(spec.Cells)*f)))
	s.Nets = maxInt(4, int(math.Round(float64(spec.Nets)*f)))
	s.NumMacros = int(math.Round(float64(spec.NumMacros) * math.Sqrt(f)))
	if spec.NumMacros > 0 && s.NumMacros < 1 {
		s.NumMacros = 1
	}
	if f < 1 {
		s.Name = fmt.Sprintf("%s@%.2g", spec.Name, f)
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mcncTable holds published parameters of the classic ACM/SIGDA (MCNC)
// partitioning test cases — the suite the paper argues had gone stale:
// "The MCNC cases are small and lack nodes with large degree or large
// area", and were historically run in unit-area mode, which is how CLIP
// corking stayed hidden. Cell/net counts follow the standard literature
// values for the netlist-partitioning versions of these circuits.
var mcncTable = map[string]struct {
	cells, nets int
	avgNetSize  float64
}{
	"fract":    {149, 147, 3.1},
	"prim1":    {833, 902, 3.1},
	"prim2":    {3014, 3029, 3.7},
	"struct":   {1952, 1920, 2.8},
	"ind1":     {2271, 2192, 3.2},
	"bio":      {6417, 5742, 3.6},
	"ind2":     {12637, 13419, 3.7},
	"ind3":     {15406, 21923, 3.1},
	"avqsmall": {21918, 22124, 3.7},
	"avqlarge": {25178, 25384, 3.7},
}

// MCNCProfile returns a synthetic stand-in spec for a classic MCNC test
// case: unit areas, no macros, no huge global nets — exactly the instance
// class whose historical dominance the paper blames for masking
// actual-area pathologies like corking.
func MCNCProfile(name string) (Spec, error) {
	p, ok := mcncTable[name]
	if !ok {
		return Spec{}, fmt.Errorf("gen: no MCNC profile %q", name)
	}
	return Spec{
		Name:       name + "-like",
		Cells:      p.cells,
		Nets:       p.nets,
		AvgNetSize: p.avgNetSize,
		UnitArea:   true,
		Locality:   2,
		Seed:       uint64(2000 + len(name)),
	}, nil
}

// MCNCNames lists the available MCNC profiles, sorted.
func MCNCNames() []string {
	names := make([]string, 0, len(mcncTable))
	for n := range mcncTable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Benchmark resolves a bundled benchmark the one way every command and the
// service do. name is "ibmNN" (or "ibmN") or "mcnc:<name>"; scale in (0,1]
// downsizes the profile; seed 0 keeps the profile's own instance seed and
// any other value is the instance seed. It returns the spec and the
// instance's report name: the canonical benchmark name ("ibm01",
// "mcnc:struct"), then "@scale" below scale 1 and "#seed" for a non-zero
// seed.
func Benchmark(name string, scale float64, seed uint64) (Spec, string, error) {
	spec, canon, err := profile(name)
	if err != nil {
		return Spec{}, "", err
	}
	if scale < 1 {
		canon = fmt.Sprintf("%s@%g", canon, scale)
	}
	if seed != 0 {
		canon = fmt.Sprintf("%s#%d", canon, seed)
	}
	return Instance(spec, scale, seed), canon, nil
}

// profile looks a benchmark name up, returning its canonical form.
func profile(name string) (Spec, string, error) {
	if rest, ok := strings.CutPrefix(name, "mcnc:"); ok {
		spec, err := MCNCProfile(rest)
		return spec, name, err
	}
	if rest, ok := strings.CutPrefix(name, "ibm"); ok {
		if i, err := strconv.Atoi(rest); err == nil {
			spec, err := IBMProfile(i)
			return spec, fmt.Sprintf("ibm%02d", i), err
		}
	}
	return Spec{}, "", errors.New("want ibmNN or mcnc:<name>")
}

// Instance applies the instance rule Benchmark applies to a profile to any
// spec: a scale below 1 downsizes it (Scaled) and a non-zero seed replaces
// its instance seed.
func Instance(spec Spec, scale float64, seed uint64) Spec {
	if scale < 1 {
		spec = Scaled(spec, scale)
	}
	if seed != 0 {
		spec.Seed = seed
	}
	return spec
}
