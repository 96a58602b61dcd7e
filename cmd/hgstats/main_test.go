package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hgpart/internal/gen"
)

// TestFeaturesGolden pins the -features JSON byte-for-byte against checked-in
// golden files: the feature vector feeds the portfolio scheduler's bucketing,
// so an accidental change to its fields or formatting must fail loudly, not
// silently reshuffle which bucket instances land in. Regenerate with
// UPDATE_GOLDEN=1 go test ./cmd/hgstats.
func TestFeaturesGolden(t *testing.T) {
	cases := []struct {
		name string
		spec func() (gen.Spec, error)
	}{
		{"ibm01_x005", func() (gen.Spec, error) {
			s, err := gen.IBMProfile(1)
			return gen.Scaled(s, 0.05), err
		}},
		{"mcnc_struct_x05", func() (gen.Spec, error) {
			s, err := gen.MCNCProfile("struct")
			return gen.Scaled(s, 0.5), err
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			spec, err := c.spec()
			if err != nil {
				t.Fatal(err)
			}
			h, err := gen.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := writeFeatures(&buf, h); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", c.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("-features output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
			}
		})
	}
}
