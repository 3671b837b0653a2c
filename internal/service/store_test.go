package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"groupranking/internal/api"
	"groupranking/internal/journal"
)

func tablePath(t *testing.T) string {
	return storePath(t.TempDir(), 1)
}

func mustOpenStore(t *testing.T, path string) (*store, map[string]*storedSession, int) {
	t.Helper()
	st, sessions, epoch, err := openStore(path)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	return st, sessions, epoch
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

var (
	testSpec = api.SessionSpec{K: 2, GroupName: "toy-dl-256", Seed: "seed"}
	t0       = time.UnixMilli(1_700_000_000_000)
)

// TestStoreTornFinalRecordDropped: a crash mid-append tears the final
// record; the next boot drops it and keeps every record before it.
func TestStoreTornFinalRecordDropped(t *testing.T) {
	path := tablePath(t)
	st, _, _ := mustOpenStore(t, path)
	must(t, st.logOpen("a", testSpec, t0))
	must(t, st.logSubmit("a", []int64{1, 2}))
	st.Close()
	must(t, os.Truncate(path, fileSize(t, path)-3))

	st, sessions, epoch := mustOpenStore(t, path)
	defer st.Close()
	a := sessions["a"]
	if a == nil || a.HasProfile || epoch != 2 {
		t.Fatalf("after a torn submit: session %+v, epoch %d; want a profile-less session a at epoch 2", a, epoch)
	}
}

// TestStoreMidFileCorruptionRefused: a bad record with records after it
// is corruption; the table refuses to boot, naming the file and offset,
// and leaves the file as it found it.
func TestStoreMidFileCorruptionRefused(t *testing.T) {
	path := tablePath(t)
	st, _, _ := mustOpenStore(t, path)
	second := fileSize(t, path)
	must(t, st.logOpen("a", testSpec, t0))
	must(t, st.logOpen("b", testSpec, t0))
	st.Close()
	raw, err := os.ReadFile(path)
	must(t, err)
	raw[second+10] ^= 0xff
	must(t, os.WriteFile(path, raw, 0o644))

	_, _, _, err = openStore(path)
	if !errors.Is(err, ErrBadJournalDir) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", second)) {
		t.Fatalf("openStore on a corrupt table: %v; want ErrBadJournalDir naming %s and offset %d", err, path, second)
	}
	if after, _ := os.ReadFile(path); !reflect.DeepEqual(after, raw) {
		t.Fatal("the refused table was rewritten")
	}
}

// TestStoreEpochPerBoot: every open is one more process life.
func TestStoreEpochPerBoot(t *testing.T) {
	path := tablePath(t)
	for want := 1; want <= 3; want++ {
		st, _, epoch := mustOpenStore(t, path)
		st.Close()
		if epoch != want {
			t.Fatalf("boot %d: epoch %d", want, epoch)
		}
	}
}

// TestStoreCompaction: a boot rewrites the table as one boot record plus,
// per surviving session in creation order, open[+submit]+done — purged
// sessions vanish, superseded records collapse.
func TestStoreCompaction(t *testing.T) {
	path := tablePath(t)
	st, _, _ := mustOpenStore(t, path)
	res := &api.ResultResponse{ID: "b", State: api.StateDone, Rank: 1}
	must(t, st.logOpen("b", testSpec, t0))
	must(t, st.logOpen("a", testSpec, t0.Add(time.Second)))
	must(t, st.logOpen("c", testSpec, t0.Add(2*time.Second)))
	must(t, st.logOpen("d", testSpec, t0.Add(-time.Second)))
	must(t, st.logSubmit("b", []int64{1}))
	must(t, st.logSubmit("b", []int64{2}))
	must(t, st.logDone("b", res))
	must(t, st.logDone("d", &api.ResultResponse{ID: "d", State: api.StateAborted}))
	must(t, st.logPurge("c"))
	st.Close()
	st, sessions, _ := mustOpenStore(t, path)
	defer st.Close()

	var got []string
	must(t, journal.ScanLog(path, tableFormat, func(body []byte) error {
		var rec storeRec
		if err := json.Unmarshal(body, &rec); err != nil {
			return err
		}
		got = append(got, fmt.Sprintf("%s/%s/%d/%v", rec.T, rec.ID, rec.Epoch, rec.Values))
		return nil
	}))
	want := []string{"boot//2/[]", "open/d/0/[]", "done/d/0/[]", "open/b/0/[]", "submit/b/0/[2]", "done/b/0/[]", "open/a/0/[]"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted table %q, want %q", got, want)
	}
	if b := sessions["b"]; b == nil || !reflect.DeepEqual(b.Result, res) || !b.Created.Equal(t0) || b.Spec.Seed != testSpec.Seed {
		t.Fatalf("session b after compaction: %+v", b)
	}
}

// TestStoreAppendAfterClose: a closed table refuses appends loudly.
func TestStoreAppendAfterClose(t *testing.T) {
	st, _, _ := mustOpenStore(t, tablePath(t))
	must(t, st.Close())
	must(t, st.Close())
	if err := st.logOpen("late", testSpec, t0); err == nil {
		t.Fatal("append after Close succeeded")
	}
}
