package dead

import "testing"

func TestSeam(t *testing.T) {
	if Seam()+TestOnly() != 9 {
		t.Fatal("seam")
	}
}
