// Package stats provides the probability and statistics routines the
// estimation technique needs, implemented from scratch on the standard
// library: normal and Student-t distributions, the regularized incomplete
// beta function, binomial tails, descriptive statistics, sample
// quantiles and autocorrelation.
//
// It backs the quantitative machinery of Sections III and IV: the
// normal quantiles of the runs-test acceptance region (Eqs. 5–7), the
// binomial order-statistics bounds of the default stopping criterion,
// and the autocorrelation diagnostics of the sampling audits.
package stats
