package db

import (
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/mvcc"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// TestSnapReadSeesNoAbortedImage splits snapRead into its steps around
// another session's rollback: the reader loads the row's shard gate and
// reads the writer's uncommitted heap image; the writer rolls back (heap
// restored, then its versions popped); only then does the reader resolve.
// Resolution must refuse that image — a district update's dirty YTD, an
// aborted insert's row — and snapRead's next pass must read the restored
// heap. Without the gate the store found no writer by then and returned
// the aborted bytes as visible.
func TestSnapReadSeesNoAbortedImage(t *testing.T) {
	for _, cc := range []CCMode{CCMVCC, CCSSI} {
		t.Run(cc.String()+"/update", func(t *testing.T) {
			d := openTiny(t, cc)
			r := d.NewSession().begin()
			w := d.NewSession().begin()
			if err := tinyWriteDistrict(w, 0, func(dr *DistrictRec) { dr.YTDCents = 12345 }); err != nil {
				t.Fatal(err)
			}
			key := distKey(0)
			rid, _ := d.idx[idxDistrict].get(key)
			k := mvcc.Key{Table: uint32(core.District), Row: key}
			buf := make([]byte, tpcc.TupleLen[core.District])

			g := d.mvcc.Gate(k)
			live, err := r.heapImage(core.District, storage.UnpackRID(rid), buf)
			if err != nil || !live {
				t.Fatalf("heap read = (%v, %v)", live, err)
			}
			var dr DistrictRec
			dr.Unmarshal(buf)
			if dr.YTDCents != 12345 {
				t.Fatalf("the reader did not read the writer's image (YTD %d)", dr.YTDCents)
			}
			if err := w.rollbackWith(0); err != nil {
				t.Fatal(err)
			}
			if live, ok := d.mvcc.Resolve(&r.mv, k, g, live, buf); ok {
				dr.Unmarshal(buf)
				if live && dr.YTDCents == 12345 {
					t.Fatal("reader resolved the aborted update's image as visible")
				}
			}
			if rec, live := tinyReadDistrict(t, r, 0); !live || rec.YTDCents != 0 {
				t.Fatalf("reread = (YTD %d, live %v), want the committed YTD 0", rec.YTDCents, live)
			}
			if err := r.commit(); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(cc.String()+"/insert", func(t *testing.T) {
			d := openTiny(t, cc)
			r := d.NewSession().begin()
			w := d.NewSession().begin()
			key := distKey(tinyDistricts)
			img := make([]byte, tpcc.TupleLen[core.District])
			(&DistrictRec{ID: tinyDistricts, NextOID: 1}).Marshal(img)
			rid, err := w.insertRow(core.District, img)
			if err != nil {
				t.Fatal(err)
			}
			k := mvcc.Key{Table: uint32(core.District), Row: key}
			buf := make([]byte, len(img))

			g := d.mvcc.Gate(k)
			live, err := r.heapImage(core.District, rid, buf)
			if err != nil || !live {
				t.Fatalf("heap read of the inserted row = (%v, %v)", live, err)
			}
			if err := w.rollbackWith(0); err != nil {
				t.Fatal(err)
			}
			if live, ok := d.mvcc.Resolve(&r.mv, k, g, live, buf); ok && live {
				t.Fatal("reader resolved the aborted insert's row as live")
			}
			if live, err := r.snapRead(core.District, key, rid, buf); err != nil || live {
				t.Fatalf("reread of the aborted insert = (%v, %v), want (false, nil)", live, err)
			}
			if err := r.commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
