// Tests for util/error.hpp — contract helpers.
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <string>

namespace linesearch {
namespace {

TEST(Expects, PassesOnTrue) { EXPECT_NO_THROW(expects(true, "fine")); }

TEST(Expects, ThrowsPreconditionErrorOnFalse) {
  EXPECT_THROW(expects(false, "boom"), PreconditionError);
}

TEST(Expects, MessageContainsTextAndLocation) {
  try {
    expects(false, "my-precondition");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("my-precondition"), std::string::npos);
    EXPECT_NE(what.find("error_test.cpp"), std::string::npos);
  }
}

TEST(Expects, MessageExcludesTheLocationThatWhatCarries) {
  try {
    expects(false, "my-precondition");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.message(), "my-precondition");
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("my-precondition [", 0), 0u) << what;
    EXPECT_NE(what.find("error_test.cpp:"), std::string::npos) << what;
  }
  // An error built without a location: the message is all of what().
  const NumericError plain("no bracket");
  EXPECT_EQ(plain.message(), "no bracket");
  EXPECT_STREQ(plain.what(), "no bracket");
}

TEST(Expects, BuildsALazyMessageOnlyOnFailure) {
  int built = 0;
  const auto message = [&built] {
    ++built;
    return "lazy-" + std::to_string(42);
  };
  EXPECT_NO_THROW(expects(true, message));
  EXPECT_NO_THROW(ensures(true, message));
  EXPECT_EQ(built, 0);
  try {
    expects(false, message);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(e.message(), "lazy-42");
    EXPECT_NE(std::string(e.what()).find("error_test.cpp"),
              std::string::npos);
  }
  EXPECT_THROW(ensures(false, message), InvariantError);
  EXPECT_EQ(built, 2);
}

TEST(Ensures, ThrowsInvariantErrorOnFalse) {
  EXPECT_THROW(ensures(false, "broken invariant"), InvariantError);
  EXPECT_NO_THROW(ensures(true, "ok"));
}

TEST(ErrorHierarchy, AllDeriveFromError) {
  EXPECT_THROW(
      { throw PreconditionError("x"); }, Error);
  EXPECT_THROW(
      { throw InvariantError("x"); }, Error);
  EXPECT_THROW(
      { throw NumericError("x"); }, Error);
}

TEST(ErrorHierarchy, ErrorIsRuntimeError) {
  EXPECT_THROW(
      { throw NumericError("x"); }, std::runtime_error);
}

}  // namespace
}  // namespace linesearch
