package service_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"hgpart"
	"hgpart/internal/service"
)

// A fixed-engine served report and the library's one-call Bisect run the
// same multistart and the same finish step, so with the same seed and
// starts they agree on the final cut, the side areas and the work, polish
// included.
func TestFixedReportMatchesBisect(t *testing.T) {
	_, hs := testServer(t, nil)
	h, err := hgpart.Generate(hgpart.Scaled(hgpart.MustIBMProfile(1), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]hgpart.EngineKind{
		"ml": hgpart.EngineML, "flat": hgpart.EngineFlatFM, "clip": hgpart.EngineFlatCLIP,
	}
	for _, engine := range []string{"ml", "flat", "clip"} {
		for _, seed := range []uint64{1, 7} {
			resp, body := post(t, hs, fmt.Sprintf(
				`{"benchmark":"ibm01","scale":0.1,"engine":%q,"starts":4,"seed":%d}`, engine, seed))
			if resp.StatusCode != 200 {
				t.Fatalf("%s seed %d: status %d: %s", engine, seed, resp.StatusCode, body)
			}
			var rep service.Report
			if err := json.Unmarshal(body, &rep); err != nil {
				t.Fatal(err)
			}
			p, res, err := hgpart.Bisect(h, hgpart.BisectOptions{Starts: 4, Engine: engines[engine], Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cut != res.Cut || rep.Side0 != p.Area(0) || rep.Side1 != p.Area(1) || rep.Work != res.Work {
				t.Errorf("%s seed %d: served cut=%d sides=%d/%d work=%d, Bisect cut=%d sides=%d/%d work=%d",
					engine, seed, rep.Cut, rep.Side0, rep.Side1, rep.Work,
					res.Cut, p.Area(0), p.Area(1), res.Work)
			}
		}
	}
}
