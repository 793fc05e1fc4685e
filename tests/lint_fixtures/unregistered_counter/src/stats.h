// Fixture: a planted registry-sync defect.  Each counter list has one
// entry that docs/robustness.md does not document, so each is an
// operator-visible counter nobody can look up.  dylint must flag both.
#ifndef FIXTURE_STATS_H_
#define FIXTURE_STATS_H_

#define DYCUCKOO_TABLE_STATS(X)                          \
  X(inserts_new) /* documented */                        \
  X(planted_table_counter) /* PLANTED DEFECT: no row */

#define DYCUCKOO_SERVER_STATS(X) \
  X(submitted)                   \
  X(planted_server_counter) /* PLANTED DEFECT: no row */

#endif  // FIXTURE_STATS_H_
