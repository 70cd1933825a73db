package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/core"
)

// TestFastPathCoversStudies checks that every file SaveDataset writes for
// a full 23-country study takes the one-pass decoder rather than the
// encoding/json fallback, and decodes to what json.Unmarshal gives. A
// silent fall-back would pass an equivalence test, so it is asserted on
// the decoder directly.
func TestFastPathCoversStudies(t *testing.T) {
	dir := t.TempDir()
	var last *core.Dataset
	for _, seed := range []uint64{42, 7, 2024} {
		st, err := gamma.RunStudy(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		codes := make([]string, 0, len(st.Datasets))
		for cc := range st.Datasets {
			codes = append(codes, cc)
		}
		sort.Strings(codes)
		if len(codes) != 23 {
			t.Fatalf("seed %d: %d datasets, want 23", seed, len(codes))
		}
		for _, cc := range codes {
			assertFastPath(t, filepath.Join(dir, cc+".json"), st.Datasets[cc])
		}
		last = st.Datasets[codes[0]]
	}

	// json.Marshal writes &, < and > as \u0026, \u003c and \u003e, and
	// U+2028 as \u2028; real query strings carry them.
	p := &last.Pages[0]
	p.Load.URL = "https://ads.example/p?a=1&b=<2>&c=\u00e9\u2028\U0001F600"
	p.Load.Requests = append(p.Load.Requests, core.RequestRecord{
		URL: p.Load.URL, Domain: "ads.example", Type: "script", Initiator: "document",
	})
	raw := assertFastPath(t, filepath.Join(dir, "escaped.json"), last)
	if !bytes.Contains(raw, []byte(`\u0026`)) || !bytes.Contains(raw, []byte(`\u2028`)) {
		t.Fatal("escaped.json carries no \\u escapes")
	}
}

func assertFastPath(t *testing.T, path string, ds *core.Dataset) []byte {
	t.Helper()
	if err := core.SaveDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := core.DecodeDataset(raw)
	if !ok {
		t.Fatalf("%s: deferred to encoding/json", path)
	}
	var want core.Dataset
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("%s: one-pass decode differs from json.Unmarshal", path)
	}
	return raw
}

// BenchmarkLoadDataset loads one volunteer's dataset of the full study
// (Azerbaijan, the largest at seed 42: about 2 MB) from disk.
func BenchmarkLoadDataset(b *testing.B) {
	w, err := gamma.NewWorld(42)
	if err != nil {
		b.Fatal(err)
	}
	sels, err := gamma.SelectTargets(w)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := gamma.RunVolunteer(context.Background(), w, "AZ", sels["AZ"])
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "AZ.json")
	if err := core.SaveDataset(path, ds); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if loaded, err = core.LoadDataset(path); err != nil {
			b.Fatal(err)
		}
	}
}

// loaded keeps BenchmarkLoadDataset's result live.
var loaded *core.Dataset
