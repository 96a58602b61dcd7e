package hgpart

import "testing"

func TestPartitionKWayFacade(t *testing.T) {
	h := testGraph(t)
	res, err := PartitionKWay(h, 4, KWayConfig{Tolerance: 0.1}, NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Parts.Validate(4); err != nil {
		t.Fatal(err)
	}
	if res.CutNets != CutSize(h, res.Parts) {
		t.Fatal("result cut disagrees with objective.CutSize")
	}
	if res.ConnectivityMinusOne != ConnectivityMinusOne(h, res.Parts) {
		t.Fatal("connectivity disagrees")
	}
}

func TestObjectiveFacade(t *testing.T) {
	h := testGraph(t)
	res, err := PartitionKWay(h, 2, KWayConfig{Tolerance: 0.05}, NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	a := res.Parts
	if SumOfExternalDegrees(h, a) != ConnectivityMinusOne(h, a)+CutSize(h, a) {
		t.Fatal("SOED identity broken via facade")
	}
	if ScaledCost(h, a, 2) <= 0 {
		t.Fatal("scaled cost nonpositive")
	}
	if Absorption(h, a, 2) <= 0 {
		t.Fatal("absorption nonpositive")
	}
}
