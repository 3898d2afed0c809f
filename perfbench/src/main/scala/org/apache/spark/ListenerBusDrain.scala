package org.apache.spark

/** Listener events arrive asynchronously; the benchmark reads its
  * listeners only after every event posted so far has been delivered.
  * `waitUntilEmpty` is Spark-private, hence this accessor's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
