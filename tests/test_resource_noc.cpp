/**
 * @file
 * Tests for the Resource occupancy model and the interconnects.
 */

#include <gtest/gtest.h>

#include "common/resource.hpp"
#include "noc/crossbar.hpp"
#include "noc/mesh.hpp"

using namespace tlsim;
using namespace tlsim::noc;

TEST(Resource, NoDelayWhenIdle)
{
    Resource r;
    EXPECT_EQ(r.acquire(100, 10), 0u);
    EXPECT_EQ(r.nextFree(), 110u);
}

TEST(Resource, BackToBackRequestsQueue)
{
    Resource r;
    EXPECT_EQ(r.acquire(0, 10), 0u);
    EXPECT_EQ(r.acquire(0, 10), 10u); // waits for the first
    EXPECT_EQ(r.acquire(5, 10), 15u);
}

TEST(Resource, LateRequestSeesNoQueue)
{
    Resource r;
    r.acquire(0, 10);
    EXPECT_EQ(r.acquire(50, 10), 0u);
}

TEST(Mesh2D, HopsAreManhattanDistance)
{
    Mesh2D mesh(4, 4);
    EXPECT_EQ(mesh.hops(0, 0), 0u);
    EXPECT_EQ(mesh.hops(0, 3), 3u);   // same row
    EXPECT_EQ(mesh.hops(0, 12), 3u);  // same column
    EXPECT_EQ(mesh.hops(0, 15), 6u);  // opposite corner
    EXPECT_EQ(mesh.hops(5, 10), 2u);
}

TEST(Mesh2D, ZeroLoadTraversalHasNoDelay)
{
    Mesh2D mesh(4, 4);
    EXPECT_EQ(mesh.traverse(0, 0, 15, MsgClass::Control), 0u);
}

TEST(Mesh2D, ContentionDelaysSharedLinks)
{
    Mesh2D mesh(4, 4);
    // Two data messages from node 0 east toward node 3 share link 0->1.
    Cycle d1 = mesh.traverse(0, 0, 3, MsgClass::Data);
    Cycle d2 = mesh.traverse(0, 0, 3, MsgClass::Data);
    EXPECT_EQ(d1, 0u);
    EXPECT_GT(d2, 0u);
}

TEST(Mesh2D, DisjointPathsDoNotInterfere)
{
    Mesh2D mesh(4, 4);
    mesh.traverse(0, 0, 1, MsgClass::Data);
    EXPECT_EQ(mesh.traverse(0, 14, 15, MsgClass::Data), 0u);
}

TEST(Crossbar, OneHopBetweenDistinctNodes)
{
    Crossbar xbar(8);
    EXPECT_EQ(xbar.hops(2, 2), 0u);
    EXPECT_EQ(xbar.hops(2, 5), 1u);
}

TEST(Crossbar, ContentionOnlyAtDestination)
{
    Crossbar xbar(8);
    EXPECT_EQ(xbar.traverse(0, 0, 5, MsgClass::Data), 0u);
    // Same destination: queues.
    EXPECT_GT(xbar.traverse(0, 1, 5, MsgClass::Data), 0u);
    // Different destination: free.
    EXPECT_EQ(xbar.traverse(0, 2, 6, MsgClass::Data), 0u);
}

TEST(Crossbar, ControlMessagesAreCheaperThanData)
{
    EXPECT_LT(msgOccupancy(MsgClass::Control),
              msgOccupancy(MsgClass::Data));
}
