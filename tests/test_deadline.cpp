// support::Deadline semantics pins: the poll budget counts exactly, the
// latch holds forever, and copies (constructed or assigned) snapshot the
// latch and the remaining budget.
#include <gtest/gtest.h>

#include "support/deadline.hpp"

namespace cdcs::support {
namespace {

TEST(Deadline, DefaultIsUnlimitedAndNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(d.latched());
}

TEST(Deadline, ExpireAfterChecksCountsPolls) {
  Deadline d = Deadline::expire_after_checks(2);
  EXPECT_FALSE(d.unlimited());
  EXPECT_FALSE(d.expired());  // poll 1
  EXPECT_FALSE(d.expired());  // poll 2
  EXPECT_TRUE(d.expired());   // poll 3 trips
  EXPECT_TRUE(d.latched());
  EXPECT_TRUE(d.expired());   // latched forever
}

TEST(Deadline, CopyAssignmentSnapshotsLatchAndPollBudget) {
  // The pipeline assigns deadlines (the solver inherits the run's budget):
  // the target takes what is left of the source's poll budget and its
  // latch, and from then on the two count polls independently.
  Deadline original = Deadline::expire_after_checks(2);
  EXPECT_FALSE(original.expired());  // poll 1 of the original's budget
  Deadline assigned;
  assigned = original;
  EXPECT_FALSE(assigned.unlimited());
  EXPECT_FALSE(assigned.expired());  // the one poll left in the snapshot
  EXPECT_TRUE(assigned.expired());
  EXPECT_FALSE(original.latched());  // the copy's polls are its own
  EXPECT_FALSE(original.expired());
  EXPECT_TRUE(original.expired());

  Deadline latched_target;
  latched_target = original;
  EXPECT_TRUE(latched_target.latched());
  EXPECT_TRUE(latched_target.expired());
}

TEST(Deadline, CopyOfLatchedDeadlineStaysLatched) {
  Deadline d = Deadline::expire_after_checks(0);
  EXPECT_TRUE(d.expired());
  Deadline copy = d;
  EXPECT_TRUE(copy.latched());
  EXPECT_TRUE(copy.expired());
  EXPECT_FALSE(copy.unlimited());
}

}  // namespace
}  // namespace cdcs::support
