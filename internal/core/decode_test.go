package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testDatasetJSON is SaveDataset's encoding of the fake-driver run, with
// a query string that json.Marshal escapes (& as \u0026).
func testDatasetJSON(t testing.TB) []byte {
	t.Helper()
	env, _, _ := testEnv()
	s, err := New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ds.Pages[0].Load.Requests[1].URL += "?v=1&id=<9>"
	raw, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// mutate applies one textual substitution, failing if it matches nothing.
func mutate(t testing.TB, raw []byte, old, new string) []byte {
	t.Helper()
	if !bytes.Contains(raw, []byte(old)) {
		t.Fatalf("mutation target %q not found", old)
	}
	return bytes.Replace(raw, []byte(old), []byte(new), 1)
}

// accepted are inputs outside SaveDataset's exact form that the one-pass
// decoder still decodes itself.
func accepted(t testing.TB, raw []byte) map[string][]byte {
	compact := new(bytes.Buffer)
	if err := json.Compact(compact, raw); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"indented":       raw,
		"compact":        compact.Bytes(),
		"key order":      mutate(t, raw, `"schema_version": 1,`+"\n  "+`"volunteer_id": "vol-test",`, `"volunteer_id": "vol-test", "schema_version": 1,`),
		"tabs and CRLF":  bytes.ReplaceAll(raw, []byte("\n  "), []byte("\r\n\t")),
		"surrogate pair": mutate(t, raw, `Karachi`, `Kar\ud83d\ude00achi`),
		"escapes":        mutate(t, raw, `Karachi`, `K\"a\\r\/a\b\f\n\r\tc\u00e9hi\u0000 é 😀`),
		"replacement":    mutate(t, raw, `Karachi`, `Kar\ufffdachi \u00E9 �`),
		"negative zero":  mutate(t, raw, `"hop": 1,`, `"hop": -0,`),
		"float exponent": mutate(t, raw, `4`+"\n", `4.0e0`+"\n"),
		"empty arrays": mutate(t, mutate(t, compact.Bytes(),
			`"rtt_ms":[4]`, `"rtt_ms":[]`),
			`"addr":"20.0.0.3"`, `"addr":"20.0.0.3","cname_chain":[]`),
		"trailing spaces": append(append([]byte{}, raw...), " \n\t\r"...),
	}
}

// deferred are inputs the one-pass decoder must hand to encoding/json,
// because encoding/json treats them in ways it does not reproduce.
func deferred(t testing.TB, raw []byte) map[string][]byte {
	return map[string][]byte{
		"upper-cased key":  mutate(t, raw, `"volunteer_id"`, `"Volunteer_ID"`),
		"escaped key":      mutate(t, raw, `"volunteer_id"`, `"volunteer\u005fid"`),
		"unknown field":    mutate(t, raw, `"city"`, `"extra": [1, {"x": null}], "city"`),
		"null":             mutate(t, raw, `"Karachi, PK"`, `null`),
		"null array":       mutate(t, raw, `"hops": [`, `"hops": null, "x": [`),
		"duplicate key":    mutate(t, raw, `"country": "PK"`, `"country": "PK", "country": "XX"`),
		"duplicate array":  mutate(t, raw, `"rtt_ms": [`, `"rtt_ms": [1], "rtt_ms": [`),
		"lone surrogate":   mutate(t, raw, `Karachi`, `Kar\ud83dachi`),
		"reversed pair":    mutate(t, raw, `Karachi`, `Kar\ude00\ud83dachi`),
		"bad escape":       mutate(t, raw, `Karachi`, `Kar\xachi`),
		"invalid UTF-8":    mutate(t, raw, `Karachi`, "Kar\xffachi"),
		"control byte":     mutate(t, raw, `Karachi`, "Kar\tachi"),
		"trailing garbage": append(append([]byte{}, raw...), 'x'),
		"second value":     append(append([]byte{}, raw...), "{}"...),
		"exponent in int":  mutate(t, raw, `"hop": 1,`, `"hop": 1e2,`),
		"fraction in int":  mutate(t, raw, `"hop": 1,`, `"hop": 1.0,`),
		"int overflow":     mutate(t, raw, `"hop": 1,`, `"hop": 99999999999999999999,`),
		"float overflow":   mutate(t, raw, `4`+"\n", `1e400`+"\n"),
		"leading zero":     mutate(t, raw, `"hop": 1,`, `"hop": 01,`),
		"string for bool":  mutate(t, raw, `"reached": true`, `"reached": "true"`),
		"bad time":         mutate(t, raw, `"2024-03-16T09:00:00Z"`, `"2024-03-16"`),
		"pings":            mutate(t, raw, `"traceroutes": [`, `"pings": [{"addr": "20.0.0.1", "ok": true}], "traceroutes": [`),
		"trailing comma":   mutate(t, raw, `"kind": "regional"`, `"kind": "regional",`),
		"not an object":    []byte(`[]`),
		"empty":            nil,
		"truncated":        raw[:len(raw)/2],
	}
}

func TestDecodeDatasetAccepts(t *testing.T) {
	for name, raw := range accepted(t, testDatasetJSON(t)) {
		got, ok := decodeDataset(raw)
		if !ok {
			t.Errorf("%s: deferred", name)
			continue
		}
		var want Dataset
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: differs from json.Unmarshal", name)
		}
	}
}

func TestDecodeDatasetDefers(t *testing.T) {
	for name, raw := range deferred(t, testDatasetJSON(t)) {
		if _, ok := decodeDataset(raw); ok {
			t.Errorf("%s: decoded, want deferral to encoding/json", name)
		}
	}
}

// FuzzLoadDataset is the differential check of the one-pass decoder: for
// any bytes it must defer or return exactly json.Unmarshal's result, and
// never panic.
func FuzzLoadDataset(f *testing.F) {
	raw := testDatasetJSON(f)
	for _, in := range accepted(f, raw) {
		f.Add(in)
	}
	for _, in := range deferred(f, raw) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, ok := decodeDataset(raw)
		if !ok {
			return
		}
		var want Dataset
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("decoded input encoding/json rejects: %v", err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("decoded %+v, json.Unmarshal gives %+v", got, &want)
		}
	})
}

// TestLoadDatasetFallback checks that deferred inputs still load through
// encoding/json, with its result and its error text.
func TestLoadDatasetFallback(t *testing.T) {
	dir := t.TempDir()
	for name, in := range deferred(t, testDatasetJSON(t)) {
		path := filepath.Join(dir, "d.json")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadDataset(path)
		var want Dataset
		if jerr := json.Unmarshal(in, &want); jerr != nil {
			if err == nil || !strings.Contains(err.Error(), jerr.Error()) {
				t.Errorf("%s: error %v, want encoding/json's %v", name, err, jerr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: LoadDataset = %v, %v; want json.Unmarshal's result", name, got, err)
		}
	}
}

func TestLoadDatasetSizeLimits(t *testing.T) {
	dir := t.TempDir()

	// A sparse file just over the limit is refused before it is read.
	big := filepath.Join(dir, "big.json")
	if err := os.WriteFile(big, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(big, maxDatasetBytes+1); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(big); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized file: err = %v, want a size-limit error", err)
	}

	// A few-KB gzip of zeros that expands to just over the limit.
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for n := 0; n <= maxDatasetBytes; n += len(zeros) {
		if _, err := zw.Write(zeros[:min(len(zeros), maxDatasetBytes+1-n)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	bomb := filepath.Join(dir, "bomb.json.gz")
	if err := os.WriteFile(bomb, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(bomb); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("gzip bomb (%d bytes compressed): err = %v, want a size-limit error", buf.Len(), err)
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	env, _, _ := testEnv()
	s, _ := New(testConfig(), env)
	ds, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b.json", "a.json.gz"} {
		if err := SaveDataset(filepath.Join(dir, name), ds); err != nil {
			t.Fatal(err)
		}
	}
	// Neither of these is a dataset; a glob like *.json* would take them.
	for _, name := range []string{"notes.jsonl", "x.json.bak", "c.json.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("LoadDir loaded %d datasets, want the two copies", len(got))
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("an empty directory must be an error")
	}
}
