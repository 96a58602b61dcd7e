package service_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInstanceSourcesGolden pins the report bytes, instance names and cache
// keys hgserved produces for every way a request names its instance: ibmNN
// and ibmN benchmarks, an MCNC profile, a downscale, the default and an
// explicit instance seed, inline hgr with and without a label, and inline
// netd with and without areas. Regenerate with
// UPDATE_GOLDEN=1 go test -run TestInstanceSourcesGolden ./internal/service.
func TestInstanceSourcesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("partitions nine instances")
	}
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join("..", "netlist", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	quote := func(s string) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	hgr, netD, are := quote(read("tiny.hgr")), quote(read("tiny.netD")), quote(read("tiny.are"))
	_, hs := testServer(t, nil)
	var transcript strings.Builder
	for _, body := range []string{
		`{"benchmark":"ibm01","starts":1}`,
		`{"benchmark":"ibm1","scale":0.1,"starts":1}`,
		`{"benchmark":"ibm01","scale":0.1,"starts":1}`,
		`{"benchmark":"mcnc:struct","starts":2}`,
		`{"benchmark":"ibm03","scale":0.05,"instance_seed":0,"starts":1}`,
		`{"benchmark":"ibm03","scale":0.05,"instance_seed":7,"starts":1}`,
		`{"benchmark":"mcnc:prim1","scale":0.5,"instance_seed":7,"starts":1}`,
		`{"hgr":` + hgr + `,"starts":2}`,
		`{"hgr":` + hgr + `,"label":"tiny","starts":2,"seed":3}`,
		`{"netd":` + netD + `,"starts":2}`,
		`{"netd":` + netD + `,"are":` + are + `,"label":"tiny-netd","starts":2}`,
		`{"benchmark":"ibm19"}`,
		`{"benchmark":"ibmx"}`,
		`{"benchmark":"mcnc:nope"}`,
		`{"benchmark":"struct"}`,
		`{"hgr":"2 3\n1 9\n"}`,
		`{"netd":"garbage"}`,
	} {
		resp, out := post(t, hs, body)
		fmt.Fprintf(&transcript, "%d %s\n", resp.StatusCode, out)
	}
	golden := filepath.Join("testdata", "instance_sources.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(transcript.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if transcript.String() != string(want) {
		t.Fatalf("reports drifted from %s:\ngot:\n%s\nwant:\n%s", golden, transcript.String(), want)
	}
}
