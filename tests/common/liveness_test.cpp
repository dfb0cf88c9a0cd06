#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "common/liveness.hpp"

namespace ble {
namespace {

TEST(LivenessTokenTest, WatchIsAliveWhileTheOwnerIs) {
    LivenessToken token;
    const LivenessToken::Watch watch = token.watch();
    EXPECT_TRUE(watch.alive());
}

TEST(LivenessTokenTest, DestroyingTheOwnerKillsEveryWatch) {
    std::optional<LivenessToken> token(std::in_place);
    const LivenessToken::Watch first = token->watch();
    const LivenessToken::Watch second = token->watch();
    token.reset();
    // The watches outlive the owner safely and read dead.
    EXPECT_FALSE(first.alive());
    EXPECT_FALSE(second.alive());
}

TEST(LivenessTokenTest, RenewKillsOnlyEarlierWatches) {
    LivenessToken token;
    const LivenessToken::Watch before = token.watch();
    token.renew();
    const LivenessToken::Watch after = token.watch();
    EXPECT_FALSE(before.alive());
    EXPECT_TRUE(after.alive());
    token.renew();
    EXPECT_FALSE(after.alive());
    EXPECT_TRUE(token.watch().alive());
}

TEST(LivenessTokenTest, CopiesAndMovesKeepTheirGeneration) {
    std::optional<LivenessToken> token(std::in_place);
    LivenessToken::Watch original = token->watch();
    LivenessToken::Watch copy = original;
    LivenessToken::Watch moved = std::move(copy);
    EXPECT_TRUE(original.alive());
    EXPECT_TRUE(moved.alive());
    EXPECT_FALSE(copy.alive());  // NOLINT(bugprone-use-after-move): moved-from reads dead

    token->renew();
    LivenessToken::Watch fresh = token->watch();
    moved = fresh;  // assignment takes the newer generation
    EXPECT_TRUE(moved.alive());
    EXPECT_FALSE(original.alive());

    token.reset();
    EXPECT_FALSE(moved.alive());
    EXPECT_FALSE(fresh.alive());
}

}  // namespace
}  // namespace ble
