package core

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SaveDataset writes a dataset as indented JSON, creating parent
// directories as needed. A ".gz" suffix gzip-compresses the file —
// volunteers on slow uplinks upload the compressed form.
func SaveDataset(path string, ds *Dataset) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("core: create dataset dir: %w", err)
	}
	raw, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encode dataset: %w", err)
	}
	if strings.HasSuffix(path, ".gz") {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(raw); err != nil {
			return fmt.Errorf("core: compress dataset: %w", err)
		}
		if err := zw.Close(); err != nil {
			return fmt.Errorf("core: compress dataset: %w", err)
		}
		raw = buf.Bytes()
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("core: write dataset: %w", err)
	}
	return os.Rename(tmp, path)
}

// maxDatasetBytes caps a dataset file's size, both on disk and after
// decompression, so that a small gzip bomb dropped into a data directory
// cannot exhaust memory on reload. Datasets seen so far are about 2 MB.
const maxDatasetBytes = 64 << 20

// LoadDataset reads a dataset saved by SaveDataset, transparently
// decompressing ".gz" files. Files over 64 MiB, on disk or decompressed,
// are rejected.
func LoadDataset(path string) (*Dataset, error) {
	raw, err := readDataset(path)
	if err != nil {
		return nil, err
	}
	ds, ok := decodeDataset(raw)
	if !ok {
		ds = new(Dataset)
		if err := json.Unmarshal(raw, ds); err != nil {
			return nil, fmt.Errorf("core: decode dataset %s: %w", path, err)
		}
	}
	if ds.SchemaVersion != 1 {
		return nil, fmt.Errorf("core: unsupported dataset schema %d", ds.SchemaVersion)
	}
	return ds, nil
}

// readDataset returns a dataset file's bytes, decompressed if the name
// ends in ".gz", enforcing maxDatasetBytes on both sizes.
func readDataset(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: read dataset: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("core: read dataset: %w", err)
	}
	if fi.Size() > maxDatasetBytes {
		return nil, fmt.Errorf("core: dataset %s is %d bytes, over the %d-byte limit", path, fi.Size(), maxDatasetBytes)
	}
	raw, err := readLimited(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("core: read dataset %s: %w", path, err)
	}
	if !strings.HasSuffix(path, ".gz") {
		return raw, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("core: decompress dataset: %w", err)
	}
	// The gzip trailer (after the 10-byte header NewReader has checked)
	// records the decompressed size. It only presizes the buffer; the
	// limit holds whatever it claims.
	raw, err = readLimited(zr, int64(binary.LittleEndian.Uint32(raw[len(raw)-4:])))
	if err != nil {
		return nil, fmt.Errorf("core: decompress dataset %s: %w", path, err)
	}
	return raw, nil
}

// readLimited reads r to the end into a buffer presized to sizeHint,
// failing once it holds more than maxDatasetBytes.
func readLimited(r io.Reader, sizeHint int64) ([]byte, error) {
	r = io.LimitReader(r, maxDatasetBytes+1)
	buf := make([]byte, 0, min(sizeHint, maxDatasetBytes)+1)
	for {
		if len(buf) == cap(buf) {
			if len(buf) > maxDatasetBytes {
				break
			}
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if len(buf) > maxDatasetBytes {
		return nil, fmt.Errorf("over the %d-byte limit", maxDatasetBytes)
	}
	return buf, nil
}

// LoadDir loads every volunteer dataset in dir (*.json and *.json.gz) in
// sorted file-name order. A directory without datasets is an error.
func LoadDir(dir string) ([]*Dataset, error) {
	var files []string
	for _, pattern := range []string{"*.json", "*.json.gz"} {
		matches, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return nil, err
		}
		files = append(files, matches...)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("core: no datasets in %s", dir)
	}
	sort.Strings(files)
	datasets := make([]*Dataset, 0, len(files))
	for _, f := range files {
		ds, err := LoadDataset(f)
		if err != nil {
			return nil, err
		}
		datasets = append(datasets, ds)
	}
	return datasets, nil
}
