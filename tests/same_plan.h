/**
 * @file
 * Field-by-field MsmPlan equality for the planner tests: a plan is
 * the one record of what runs, so two plans agree only when every
 * execution decision does.
 */

#ifndef DISTMSM_TESTS_SAME_PLAN_H
#define DISTMSM_TESTS_SAME_PLAN_H

#include "src/msm/planner.h"

namespace distmsm::msm {

inline bool
samePlan(const MsmPlan &a, const MsmPlan &b)
{
    return a.windowBits == b.windowBits &&
           a.numWindows == b.numWindows &&
           a.scalarBits == b.scalarBits && a.glv == b.glv &&
           a.numBuckets == b.numBuckets &&
           a.signedDigits == b.signedDigits &&
           a.gpusPerWindow == b.gpusPerWindow &&
           a.windowsPerGpu == b.windowsPerGpu &&
           a.threadsPerBucket == b.threadsPerBucket &&
           a.bucketsSplitAcrossGpus == b.bucketsSplitAcrossGpus &&
           a.precompute == b.precompute &&
           a.tableBytes == b.tableBytes &&
           a.collective == b.collective &&
           a.mergeBytesPerGpu == b.mergeBytesPerGpu &&
           a.fieldBackend == b.fieldBackend &&
           a.fieldBackendAuto == b.fieldBackendAuto &&
           a.batchAffine == b.batchAffine &&
           a.cpuBucketReduce == b.cpuBucketReduce &&
           a.collectiveAuto == b.collectiveAuto &&
           a.hierarchicalScatter == b.hierarchicalScatter;
}

} // namespace distmsm::msm

#endif // DISTMSM_TESTS_SAME_PLAN_H
