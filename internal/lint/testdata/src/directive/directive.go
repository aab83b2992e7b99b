// Package directive exercises //sapla: directive validation; its expected
// diagnostics are asserted programmatically in TestDirectiveValidation
// because several of them point at full-line comments that cannot carry a
// trailing want comment.
package directive

func ok(a, b float64) bool {
	return a == b //sapla:floateq exact sentinel comparison, suppressed cleanly
}

//sapla:bogus whatever
func unknownName(a, b float64) bool {
	return a != b //sapla:floateq inequality of exact sentinels
}

func missingReason(a, b float64) bool {
	return a == b //sapla:floateq
}

func retiredName() int {
	//sapla:noalloc
	return 0
}
