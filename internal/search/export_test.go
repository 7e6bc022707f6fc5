package search

// ScanBlock exports scanBlock to the external tests that size their
// reference sets and cancellation bounds in blocks.
const ScanBlock = scanBlock
