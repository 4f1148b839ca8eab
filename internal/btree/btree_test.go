package btree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestNewRejectsTinyOrder(t *testing.T) {
	if _, err := New[int](2); err == nil {
		t.Fatal("order 2 accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := MustNew[int](4)
	if tr.Len() != 0 || tr.Height() != 1 || tr.NodeCount() != 1 {
		t.Fatalf("empty tree: len=%d h=%d nodes=%d", tr.Len(), tr.Height(), tr.NodeCount())
	}
	if _, ok := tr.Get(key(1)); ok {
		t.Fatal("Get on empty tree found something")
	}
	if n := tr.Scan(nil, nil, func([]byte, int) bool { return true }); n != 0 {
		t.Fatalf("Scan on empty tree visited %d entries", n)
	}
	if tr.Delete(key(1)) {
		t.Fatal("Delete on empty tree returned true")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGetSequential(t *testing.T) {
	tr := MustNew[int](4)
	const n = 1000
	for i := 0; i < n; i++ {
		if tr.Insert(key(i), i) {
			t.Fatalf("Insert(%d) reported replace", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(key(i))
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
		}
	}
}

func TestInsertReplace(t *testing.T) {
	tr := MustNew[string](8)
	tr.Insert(key(7), "a")
	if !tr.Insert(key(7), "b") {
		t.Fatal("replace not reported")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
	v, _ := tr.Get(key(7))
	if v != "b" {
		t.Fatalf("Get = %q", v)
	}
}

func TestInsertKeyAliasing(t *testing.T) {
	// The tree must copy keys: mutating the caller's slice after Insert
	// must not corrupt the tree.
	tr := MustNew[int](4)
	k := key(42)
	tr.Insert(k, 1)
	k[0] = 0xFF
	if _, ok := tr.Get(key(42)); !ok {
		t.Fatal("tree shared caller's key memory")
	}
}

func TestScan(t *testing.T) {
	tr := MustNew[int](4)
	for i := 0; i < 50; i++ {
		tr.Insert(key(i*2), i*2) // even keys 0..98
	}
	var got []int
	n := tr.Scan(key(10), key(20), func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	want := []int{10, 12, 14, 16, 18}
	if n != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Scan[10,20) = %v (n=%d), want %v", got, n, want)
	}
	// Unbounded scan visits everything in order.
	var all []int
	tr.Scan(nil, nil, func(k []byte, v int) bool {
		all = append(all, v)
		return true
	})
	if len(all) != 50 || !sort.IntsAreSorted(all) {
		t.Fatalf("full scan = %d entries, sorted=%v", len(all), sort.IntsAreSorted(all))
	}
	// Early termination.
	count := 0
	tr.Scan(nil, nil, func(k []byte, v int) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early-stop scan visited %d", count)
	}
	// From between keys starts at the next key.
	var from11 []int
	tr.Scan(key(11), key(15), func(k []byte, v int) bool {
		from11 = append(from11, v)
		return true
	})
	if fmt.Sprint(from11) != fmt.Sprint([]int{12, 14}) {
		t.Fatalf("Scan[11,15) = %v", from11)
	}
}

func TestDeleteAllOrders(t *testing.T) {
	for _, order := range []int{3, 4, 5, 8, 64} {
		t.Run(fmt.Sprintf("order=%d", order), func(t *testing.T) {
			tr := MustNew[int](order)
			const n = 500
			perm := rand.New(rand.NewSource(int64(order))).Perm(n)
			for _, i := range perm {
				tr.Insert(key(i), i)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			delPerm := rand.New(rand.NewSource(int64(order) * 7)).Perm(n)
			for step, i := range delPerm {
				if !tr.Delete(key(i)) {
					t.Fatalf("Delete(%d) = false", i)
				}
				if tr.Delete(key(i)) {
					t.Fatalf("double Delete(%d) = true", i)
				}
				if step%97 == 0 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("after deleting %d keys: %v", step+1, err)
					}
				}
			}
			if tr.Len() != 0 {
				t.Fatalf("Len = %d after deleting all", tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAgainstReferenceModel runs a randomized operation sequence against a
// map+sorted-slice reference and compares every observable behaviour.
func TestAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	tr := MustNew[int](4)
	ref := map[string]int{}
	const ops = 20000
	keyspace := 800
	for op := 0; op < ops; op++ {
		k := key(rng.Intn(keyspace))
		switch rng.Intn(4) {
		case 0, 1: // insert
			v := rng.Int()
			_, existed := ref[string(k)]
			if got := tr.Insert(k, v); got != existed {
				t.Fatalf("op %d: Insert replace=%v want %v", op, got, existed)
			}
			ref[string(k)] = v
		case 2: // delete
			_, existed := ref[string(k)]
			if got := tr.Delete(k); got != existed {
				t.Fatalf("op %d: Delete=%v want %v", op, got, existed)
			}
			delete(ref, string(k))
		case 3: // get
			want, existed := ref[string(k)]
			got, ok := tr.Get(k)
			if ok != existed || (ok && got != want) {
				t.Fatalf("op %d: Get=%d,%v want %d,%v", op, got, ok, want, existed)
			}
		}
		if op%2500 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if tr.Len() != len(ref) {
				t.Fatalf("op %d: Len=%d want %d", op, tr.Len(), len(ref))
			}
		}
	}
	// Final full comparison via scan.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	tr.Scan(nil, nil, func(k []byte, v int) bool {
		if i >= len(keys) || string(k) != keys[i] || v != ref[keys[i]] {
			t.Fatalf("scan position %d mismatch", i)
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("scan visited %d of %d", i, len(keys))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInsertDeleteInvariants(t *testing.T) {
	f := func(seed int64, orderSel uint8) bool {
		order := 3 + int(orderSel)%10
		rng := rand.New(rand.NewSource(seed))
		tr := MustNew[int](order)
		live := map[int]bool{}
		for i := 0; i < 300; i++ {
			k := rng.Intn(100)
			if rng.Intn(2) == 0 {
				tr.Insert(key(k), k)
				live[k] = true
			} else {
				got := tr.Delete(key(k))
				if got != live[k] {
					return false
				}
				delete(live, k)
			}
		}
		if tr.Len() != len(live) {
			return false
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr := MustNew[int](4)
	keys := []string{"", "a", "ab", "abc", "b", "ba", "z", "zzzz"}
	for i, k := range keys {
		tr.Insert([]byte(k), i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var got []string
	tr.Scan(nil, nil, func(k []byte, v int) bool {
		got = append(got, string(k))
		return true
	})
	if !sort.StringsAreSorted(got) || len(got) != len(keys) {
		t.Fatalf("scan order = %v", got)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := MustNew[int](DefaultOrder)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(key(i), i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := MustNew[int](DefaultOrder)
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Insert(key(i), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % n))
	}
}
