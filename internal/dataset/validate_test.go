package dataset

import "testing"

func TestValidateCleanDataset(t *testing.T) {
	er := paperER(t)
	if errs := Validate(er); len(errs) != 0 {
		t.Fatalf("clean dataset reported %v", errs)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	er := paperER(t)
	// Duplicate ID.
	er.A.Entities[1].ID = er.A.Entities[0].ID
	// Non-numeric year.
	er.B.Entities[0].Values[3] = "not-a-year"
	// Duplicate match.
	er.Matches = append(er.Matches, er.Matches[0])
	// Out-of-range match.
	er.Matches = append(er.Matches, Pair{A: 99, B: 0})
	errs := Validate(er)
	if len(errs) != 4 {
		t.Fatalf("got %d errors, want 4: %v", len(errs), errs)
	}
}

func TestValidateAllowsMissingNumeric(t *testing.T) {
	er := paperER(t)
	er.A.Entities[0].Values[3] = ""
	if errs := Validate(er); len(errs) != 0 {
		t.Fatalf("missing numeric value rejected: %v", errs)
	}
}

func TestValidateNil(t *testing.T) {
	if errs := Validate(nil); len(errs) != 1 {
		t.Fatal("nil dataset must report one error")
	}
}
