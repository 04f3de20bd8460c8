package org.apache.spark

/** Waits for the listener bus to deliver every posted event; the bus is
  * package-private, so the accessor lives in Spark's package.
  */
object SkybenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
