package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func dbArgs(db string) args {
	return args{db: db, limit: 20}
}

func TestCreateLoadQueryLifecycle(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "t.avqdb")

	a := dbArgs(db)
	a.schema = "region:16,store:128,units:1000"
	a.codec = "avq"
	a.index = "1"
	if err := run(context.Background(), "create", a); err != nil {
		t.Fatalf("create: %v", err)
	}

	// Insert, count, query, delete, stats, verify.
	a = dbArgs(db)
	a.tuple = "3,77,999"
	if err := run(context.Background(), "insert", a); err != nil {
		t.Fatalf("insert: %v", err)
	}
	a = dbArgs(db)
	a.attr, a.lo, a.hi = 0, 3, 3
	if err := run(context.Background(), "count", a); err != nil {
		t.Fatalf("count: %v", err)
	}
	if err := run(context.Background(), "query", a); err != nil {
		t.Fatalf("query: %v", err)
	}
	a = dbArgs(db)
	a.tuple = "3,77,999"
	if err := run(context.Background(), "delete", a); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := run(context.Background(), "stats", dbArgs(db)); err != nil {
		t.Fatalf("stats: %v", err)
	}
	live := dbArgs(db)
	live.live = true
	live.slowMs = 50
	if err := run(context.Background(), "stats", live); err != nil {
		t.Fatalf("stats -live: %v", err)
	}
	if err := run(context.Background(), "verify", dbArgs(db)); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestCreateErrors(t *testing.T) {
	dir := t.TempDir()
	a := dbArgs(filepath.Join(dir, "x.avqdb"))
	a.codec = "avq"
	if err := run(context.Background(), "create", a); err == nil {
		t.Fatal("create without schema succeeded")
	}
	a.schema = "broken"
	if err := run(context.Background(), "create", a); err == nil {
		t.Fatal("malformed schema accepted")
	}
	a.schema = "a:0"
	if err := run(context.Background(), "create", a); err == nil {
		t.Fatal("zero-size domain accepted")
	}
	a.schema = "a:10"
	a.codec = "nope"
	if err := run(context.Background(), "create", a); err == nil {
		t.Fatal("unknown codec accepted")
	}
	a.codec = "avq"
	a.index = "x"
	if err := run(context.Background(), "create", a); err == nil {
		t.Fatal("malformed index list accepted")
	}
}

func TestMutateErrors(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "t.avqdb")
	a := dbArgs(db)
	a.schema = "a:10,b:10"
	a.codec = "avq"
	if err := run(context.Background(), "create", a); err != nil {
		t.Fatal(err)
	}
	a = dbArgs(db)
	if err := run(context.Background(), "insert", a); err == nil {
		t.Fatal("insert without tuple succeeded")
	}
	a.tuple = "1"
	if err := run(context.Background(), "insert", a); err == nil {
		t.Fatal("wrong-arity tuple accepted")
	}
	a.tuple = "1,99"
	if err := run(context.Background(), "insert", a); err == nil {
		t.Fatal("out-of-domain tuple accepted")
	}
	a.tuple = "1,x"
	if err := run(context.Background(), "insert", a); err == nil {
		t.Fatal("non-numeric tuple accepted")
	}
	// Deleting an absent tuple is not an error (reports "not found").
	a.tuple = "1,2"
	if err := run(context.Background(), "delete", a); err != nil {
		t.Fatalf("delete of absent tuple: %v", err)
	}
}

func TestUnknownCommand(t *testing.T) {
	if err := run(context.Background(), "bogus", dbArgs("x")); err == nil {
		t.Fatal("unknown command succeeded")
	}
}

func TestSecondaryIndexCreatePacked(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "h.avqdb")
	a := dbArgs(db)
	a.schema = "a:50,b:50"
	a.codec = "packed"
	a.index = "1"
	if err := run(context.Background(), "create", a); err != nil {
		t.Fatal(err)
	}
	a = dbArgs(db)
	a.tuple = "5,7"
	if err := run(context.Background(), "insert", a); err != nil {
		t.Fatal(err)
	}
	a = dbArgs(db)
	a.attr, a.lo, a.hi = 1, 7, 7
	if err := run(context.Background(), "query", a); err != nil {
		t.Fatal(err)
	}
}

func TestAggAndExplain(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "ae.avqdb")
	a := dbArgs(db)
	a.schema = "a:16,b:100"
	a.codec = "avq"
	a.index = "1"
	if err := run(context.Background(), "create", a); err != nil {
		t.Fatal(err)
	}
	for _, tup := range []string{"1,10", "1,20", "2,30"} {
		a = dbArgs(db)
		a.tuple = tup
		if err := run(context.Background(), "insert", a); err != nil {
			t.Fatal(err)
		}
	}
	a = dbArgs(db)
	a.attr, a.lo, a.hi, a.aggAttr = 0, 1, 1, 1
	if err := run(context.Background(), "agg", a); err != nil {
		t.Fatalf("agg: %v", err)
	}
	if err := run(context.Background(), "explain", a); err != nil {
		t.Fatalf("explain: %v", err)
	}
}

func TestLoadCSVAndCompact(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "c.avqdb")
	a := dbArgs(db)
	a.schema = "x:10,y:100"
	a.codec = "avq"
	if err := run(context.Background(), "create", a); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "rows.csv")
	if err := os.WriteFile(csv, []byte("x,y\n1,10\n2,20\n3,30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a = dbArgs(db)
	a.in = csv
	if err := run(context.Background(), "load", a); err != nil {
		t.Fatalf("csv load: %v", err)
	}
	// A second load goes through the batch-insert path.
	if err := run(context.Background(), "load", a); err != nil {
		t.Fatalf("second csv load: %v", err)
	}
	a = dbArgs(db)
	a.attr, a.lo, a.hi = 0, 1, 3
	if err := run(context.Background(), "count", a); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "compact", dbArgs(db)); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := run(context.Background(), "verify", dbArgs(db)); err != nil {
		t.Fatal(err)
	}
}
